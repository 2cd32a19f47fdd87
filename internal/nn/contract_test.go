package nn

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/core"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// Tests of the Layer.Backward contract for a nil eis: every layer type
// accepts it, computes the same parameter gradients as with a real eis,
// and still consumes its per-batch state; a Network, which passes one to
// its first layer, trains to the same bits as a driver that does not.

func mustStrategy(t testing.TB, name string, workers int) core.Strategy {
	t.Helper()
	st, ok := core.StrategyByName(name, workers)
	if !ok {
		t.Fatalf("no strategy %q", name)
	}
	return st
}

func randBatch(r *rng.RNG, n int, dims []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(dims...)
		out[i].FillNormal(r, 0, 1)
	}
	return out
}

// paramGrads returns copies of a layer's accumulated parameter gradients
// (none for parameter-free layers) and clears them.
func paramGrads(l Layer) []*tensor.Tensor {
	var gs []*tensor.Tensor
	switch l := l.(type) {
	case *Conv:
		gs = []*tensor.Tensor{l.dW.Clone(), l.dB.Clone()}
		l.dW.Zero()
		l.dB.Zero()
	case *FC:
		gs = []*tensor.Tensor{l.dW.Clone(), l.dB.Clone()}
		l.dW.Zero()
		l.dB.Zero()
	}
	return gs
}

func sameTensorBits(a, b *tensor.Tensor) bool {
	return len(a.Data) == len(b.Data) && sameBits(a.Data, b.Data) < 0
}

func TestBackwardNilEISEveryLayer(t *testing.T) {
	const batch = 3
	s := conv.Square(8, 4, 3, 3, 1) // in 3x8x8, out 4x6x6
	cdims := []int{s.Nc, s.Ny, s.Nx}
	tap := NewTap("tap", cdims)
	cases := []struct {
		name  string
		layer func(r *rng.RNG) Layer
	}{
		{"conv-fixed", func(r *rng.RNG) Layer {
			return NewConvFixed("c", s, mustStrategy(t, "gemm-in-parallel", 2), 2, r)
		}},
		{"conv-split", func(r *rng.RNG) Layer {
			return NewConvSplit("c", s, mustStrategy(t, "stencil", 2), mustStrategy(t, "sparse", 2), 2, r)
		}},
		{"conv-auto", func(r *rng.RNG) Layer { return NewConv("c", s, 2, r) }},
		{"fc", func(r *rng.RNG) Layer { return NewFC("fc", cdims, 5, 2, r) }},
		{"relu", func(*rng.RNG) Layer { return NewReLU("relu", cdims, 2) }},
		{"maxpool", func(*rng.RNG) Layer { return NewMaxPool("pool", cdims, 2, 2, 2) }},
		{"avgpool", func(*rng.RNG) Layer { return NewAvgPool("avg", cdims, 3, 2, 2) }},
		{"pad", func(*rng.RNG) Layer { return NewPad("pad", cdims, 1, 2, 2) }},
		{"dropout", func(r *rng.RNG) Layer { return NewDropout("drop", cdims, 0.5, 2, r) }},
		{"tap", func(*rng.RNG) Layer { return tap }},
		{"add", func(*rng.RNG) Layer { return NewAdd("add", cdims, tap) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(5)
			l := tc.layer(r)
			ins := randBatch(r, batch, l.InDims())
			outs := randBatch(r, batch, l.OutDims())
			eos := randBatch(r, batch, l.OutDims())
			eis := randBatch(r, batch, l.InDims())
			if add, ok := l.(*Add); ok {
				add.tap.Forward(randBatch(r, batch, cdims), randBatch(r, batch, cdims))
			}
			l.Forward(outs, ins)
			if tp, ok := l.(*Tap); ok {
				tp.pending = randBatch(r, batch, cdims) // the paired Add's deposit
			}
			l.Backward(eis, eos, ins)
			want := paramGrads(l)
			var wantSparsity float64
			if c, ok := l.(*Conv); ok {
				wantSparsity, _ = c.TakeSparsity()
			}

			if tp, ok := l.(*Tap); ok {
				tp.pending = randBatch(r, batch, cdims)
			}
			l.Backward(nil, eos, ins)
			got := paramGrads(l)
			for i := range want {
				if !sameTensorBits(got[i], want[i]) {
					t.Fatalf("parameter gradient %d differs with a nil eis", i)
				}
			}
			switch l := l.(type) {
			case *Conv:
				if s, ok := l.TakeSparsity(); !ok || s != wantSparsity {
					t.Fatalf("sparsity probe = %v (ok %v), want %v", s, ok, wantSparsity)
				}
			case *Tap:
				if l.pending != nil {
					t.Fatal("tap kept its deposit after a nil-eis Backward")
				}
			case *Add:
				if len(l.tap.pending) != batch {
					t.Fatal("add did not deposit the skip gradient for its tap")
				}
				l.tap.pending = nil
			}
		})
	}
}

// contractNet is a CIFAR-shaped stack with fixed strategies (so two
// builds deploy the same engines): conv0 → relu0 → pool0 → conv1 → relu1
// → fc0.
func contractNet(t testing.TB, workers int) *Network {
	r := rng.New(21)
	ctx := exec.New(workers)
	s0 := conv.Square(12, 8, 3, 3, 1) // out 8x10x10
	c0 := NewConvSplitCtx("conv0", s0,
		mustStrategy(t, "stencil", workers), mustStrategy(t, "sparse", workers), ctx, r)
	re0 := NewReLU("relu0", c0.OutDims(), workers)
	p0 := NewMaxPool("pool0", re0.OutDims(), 2, 2, workers) // 8x5x5
	s1 := conv.Square(5, 6, 8, 3, 1)                        // out 6x3x3
	c1 := NewConvFixedCtx("conv1", s1, mustStrategy(t, "gemm-in-parallel", workers), ctx, r)
	re1 := NewReLU("relu1", c1.OutDims(), workers)
	fc := NewFCCtx("fc0", re1.OutDims(), 4, ctx, r)
	return NewNetwork(c0, re0, p0, c1, re1, fc)
}

// referenceStep trains one batch through the layers, giving every layer,
// the first included, a real eis.
func referenceStep(layers []Layer, ins []*tensor.Tensor, labels []int, lr float32) {
	batch := len(ins)
	acts := make([][]*tensor.Tensor, len(layers))
	cur := ins
	for l, layer := range layers {
		acts[l] = randBatch(rng.New(1), batch, layer.OutDims())
		layer.Forward(acts[l], reshaped(cur, layer.InDims()))
		cur = acts[l]
	}
	dl := randBatch(rng.New(1), batch, layers[len(layers)-1].OutDims())
	for i := range cur {
		SoftmaxXent{}.Loss(cur[i], labels[i], dl[i])
	}
	cur = dl
	for l := len(layers) - 1; l >= 0; l-- {
		layerIns := ins
		if l > 0 {
			layerIns = acts[l-1]
		}
		eis := randBatch(rng.New(1), batch, layers[l].InDims())
		layers[l].Backward(eis, reshaped(cur, layers[l].OutDims()), reshaped(layerIns, layers[l].InDims()))
		cur = eis
	}
	for _, layer := range layers {
		layer.ApplyGrads(lr, batch)
	}
}

func TestNetworkSkipsInputGradientBitIdentical(t *testing.T) {
	const steps, batch, lr = 4, 5, 0.05
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			net, ref := contractNet(t, workers), contractNet(t, workers)
			r := rng.New(33)
			for step := 0; step < steps; step++ {
				ins := randBatch(r, batch, net.InDims())
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = r.Intn(4)
				}
				logits := net.Forward(ins)
				dl := make([]*tensor.Tensor, batch)
				for i := range dl {
					dl[i] = tensor.New(net.OutDims()...)
					SoftmaxXent{}.Loss(logits[i], labels[i], dl[i])
				}
				net.Backward(dl, ins)
				net.ApplyGrads(lr, batch)
				referenceStep(ref.Layers(), ins, labels, lr)
			}
			got, want := net.Parameters(), ref.Parameters()
			for i := range want {
				if !sameTensorBits(got[i].Tensor, want[i].Tensor) {
					t.Fatalf("%s differs from the real-eis driver after %d steps", want[i].Name, steps)
				}
			}
			if len(net.grads[0]) != 0 {
				t.Fatalf("network allocated %d input-gradient slots for layer 0", len(net.grads[0]))
			}
		})
	}
}

// TestFCBackwardDeterministic: with several workers, the per-worker dW/dB
// partials are reduced in worker order, so repeated calls on the same
// batch give the same bits.
func TestFCBackwardDeterministic(t *testing.T) {
	const batch = 16
	r := rng.New(17)
	l := NewFCCtx("fc", []int{300}, 10, exec.New(4), r)
	ins := randBatch(r, batch, l.InDims())
	eos := randBatch(r, batch, l.OutDims())
	eis := randBatch(r, batch, l.InDims())
	l.Backward(eis, eos, ins)
	want := paramGrads(l)
	for call := 0; call < 50; call++ {
		l.Backward(eis, eos, ins)
		got := paramGrads(l)
		for i := range want {
			if !sameTensorBits(got[i], want[i]) {
				t.Fatalf("call %d: gradient %d bits differ between identical calls", call, i)
			}
		}
	}
}

// The Eq. 9 accounting counts what each conv layer computes: FP, and BP
// as BP-EI plus BP-dW except for the first layer, which skips BP-EI.
func TestConvFlops(t *testing.T) {
	net := contractNet(t, 1)
	convs := net.ConvLayers()
	s0, s1 := convs[0].Spec(), convs[1].Spec()
	fp := float64(s0.FlopsFP() + s1.FlopsFP())
	bp := float64(s0.FlopsBPWeights() + s1.FlopsBPInput() + s1.FlopsBPWeights())
	dense, useful := net.ConvFlops(10, nil)
	if dense != 10*(fp+bp) || useful != dense {
		t.Fatalf("ConvFlops(10, nil) = %v, %v; want %v for both", dense, useful, 10*(fp+bp))
	}
	sp := map[string]float64{"conv0": 0.5, "conv1": 0.25}
	_, useful = net.ConvFlops(2, sp)
	want := 2 * (fp + 0.5*float64(s0.FlopsBPWeights()) + 0.75*float64(s1.FlopsBPInput()+s1.FlopsBPWeights()))
	if math.Abs(useful-want) > 1e-9*want {
		t.Fatalf("useful = %v, want %v", useful, want)
	}
	// A conv that is not the first layer keeps its BP-EI.
	pad := NewPad("pad", []int{3, 10, 10}, 1, 1, 1)
	withPad := NewNetwork(append([]Layer{pad}, net.Layers()...)...)
	if d, _ := withPad.ConvFlops(1, nil); d != fp+bp+float64(s0.FlopsBPInput()) {
		t.Fatalf("behind a pad layer: dense %v, want %v", d, fp+bp+float64(s0.FlopsBPInput()))
	}
}
