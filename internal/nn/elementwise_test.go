package nn

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// The oracles below are the compare-and-branch ReLU and max-pool loops
// the branch-free layers replaced. The layers must match them bit for bit
// on every input, special values included.

func oracleReLU(in []float32) (out []float32, mask []bool) {
	out = make([]float32, len(in))
	mask = make([]bool, len(in))
	for j, v := range in {
		if v > 0 {
			out[j] = v
			mask[j] = true
		} else {
			out[j] = 0
			mask[j] = false
		}
	}
	return out, mask
}

func oracleReLUBackward(eo []float32, mask []bool) []float32 {
	ei := make([]float32, len(eo))
	for j, v := range eo {
		if mask[j] {
			ei[j] = v
		} else {
			ei[j] = 0
		}
	}
	return ei
}

func oracleMaxPool(in []float32, c, h, w, size, stride int) (out []float32, am []int32) {
	outH, outW := (h-size)/stride+1, (w-size)/stride+1
	out = make([]float32, c*outH*outW)
	am = make([]int32, len(out))
	o := 0
	for ci := 0; ci < c; ci++ {
		base := ci * h * w
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				bestIdx := base + oy*stride*w + ox*stride
				best := in[bestIdx]
				for ky := 0; ky < size; ky++ {
					rowBase := base + (oy*stride+ky)*w + ox*stride
					for kx := 0; kx < size; kx++ {
						if v := in[rowBase+kx]; v > best {
							best = v
							bestIdx = rowBase + kx
						}
					}
				}
				out[o] = best
				am[o] = int32(bestIdx)
				o++
			}
		}
	}
	return out, am
}

// specialValues are the inputs where a branch-free float trick can go
// wrong: signed zeros, NaNs of either sign and several payloads,
// infinities, subnormals and the extremes of the normal range.
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.NaN()), math.Float32frombits(0xffc00000), math.Float32frombits(0x7f800001),
	math.Float32frombits(0xff800001), math.Float32frombits(0x7fffffff),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), math.Float32frombits(0x80000001),
	math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
	math.Float32frombits(0xffffffff), math.Float32frombits(0x7f800000 - 1),
	math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32,
	1, -1, 0.5, -0.5,
}

// specialData returns n floats: random normals with roughly every third
// element replaced by a special value, so windows mix both.
func specialData(r *rng.RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		if r.Intn(3) == 0 {
			out[i] = specialValues[r.Intn(len(specialValues))]
		} else {
			out[i] = float32(r.NormFloat64())
		}
	}
	return out
}

func fill(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestReLUMatchesOracle(t *testing.T) {
	r := rng.New(7)
	const n, batch = 4099, 3
	l := NewReLU("relu", []int{n}, 2)
	ins, outs, eos, eis := make([]*tensor.Tensor, batch), make([]*tensor.Tensor, batch),
		make([]*tensor.Tensor, batch), make([]*tensor.Tensor, batch)
	for i := range ins {
		ins[i] = tensor.FromSlice(specialData(r, n), n)
		eos[i] = tensor.FromSlice(specialData(r, n), n)
		outs[i] = tensor.New(n)
		eis[i] = tensor.New(n)
		fill(eis[i].Data, 7) // stale values must be overwritten
	}
	l.Forward(outs, ins)
	l.Backward(eis, eos, ins)
	for i := range ins {
		wantOut, mask := oracleReLU(ins[i].Data)
		if j := sameBits(outs[i].Data, wantOut); j >= 0 {
			t.Fatalf("image %d: forward element %d: in %v got %v want %v",
				i, j, ins[i].Data[j], outs[i].Data[j], wantOut[j])
		}
		wantEI := oracleReLUBackward(eos[i].Data, mask)
		if j := sameBits(eis[i].Data, wantEI); j >= 0 {
			t.Fatalf("image %d: backward element %d: in %v eo %v got %v want %v",
				i, j, ins[i].Data[j], eos[i].Data[j], eis[i].Data[j], wantEI[j])
		}
	}
}

func TestMaxPoolMatchesOracle(t *testing.T) {
	for _, g := range []struct{ size, stride int }{{2, 2}, {3, 2}, {4, 4}} {
		t.Run(fmt.Sprintf("%d/%d", g.size, g.stride), func(t *testing.T) {
			r := rng.New(uint64(11 + g.size))
			const c, h, w, batch = 3, 13, 17, 3
			l := NewMaxPool("pool", []int{c, h, w}, g.size, g.stride, 2)
			ins, outs := make([]*tensor.Tensor, batch), make([]*tensor.Tensor, batch)
			for i := range ins {
				ins[i] = tensor.FromSlice(specialData(r, c*h*w), c, h, w)
				outs[i] = tensor.New(l.OutDims()...)
			}
			// Whole windows of one special value, and of equal zeros with
			// the -0 first or last, exercise the tie and NaN rules.
			fill(ins[0].Data, float32(math.NaN()))
			for j := range ins[1].Data {
				if j%2 == 0 {
					ins[1].Data[j] = float32(math.Copysign(0, -1))
				} else {
					ins[1].Data[j] = 0
				}
			}
			l.Forward(outs, ins)
			for i := range ins {
				want, wantAM := oracleMaxPool(ins[i].Data, c, h, w, g.size, g.stride)
				if j := sameBits(outs[i].Data, want); j >= 0 {
					t.Fatalf("image %d: output %d: got %v (%#x) want %v (%#x)", i, j,
						outs[i].Data[j], math.Float32bits(outs[i].Data[j]), want[j], math.Float32bits(want[j]))
				}
				for j := range wantAM {
					if l.argmax[i][j] != wantAM[j] {
						t.Fatalf("image %d: argmax %d: got %d want %d", i, j, l.argmax[i][j], wantAM[j])
					}
				}
			}
		})
	}
}

// TestBiasPassesMatchLoops checks the conv bias add and the dB-plus-
// sparsity pass against the loops they replaced: a zero bias is skipped
// (adding it would turn -0 outputs into +0), plane sums run in element
// order, and both zeros count as sparse.
func TestBiasPassesMatchLoops(t *testing.T) {
	r := rng.New(3)
	const nf, plane = 5, 37
	src := specialData(r, nf*plane)
	for j, v := range src { // keep the sums finite, so they compare equal
		if v != v || math.Abs(float64(v)) > 1e30 {
			src[j] = 0
		}
	}
	bias := []float32{0.5, 0, float32(math.Copysign(0, -1)), -2, 1e-3}
	src[plane] = float32(math.Copysign(0, -1)) // in the +0-bias plane

	got := append([]float32(nil), src...)
	addBias(got, bias, plane)
	want := append([]float32(nil), src...)
	for f, b := range bias {
		if b == 0 {
			continue
		}
		for j := f * plane; j < (f+1)*plane; j++ {
			want[j] += b
		}
	}
	if j := sameBits(got, want); j >= 0 {
		t.Fatalf("addBias element %d: %v, want %v", j, got[j], want[j])
	}

	sums := make([]float32, nf)
	zeros := planeSums(sums, src, plane)
	for f := 0; f < nf; f++ {
		var s float32
		for _, v := range src[f*plane : (f+1)*plane] {
			s += v
		}
		if math.Float32bits(sums[f]) != math.Float32bits(s) {
			t.Fatalf("plane %d sum %v, want %v", f, sums[f], s)
		}
	}
	if want := tensor.FromSlice(src, len(src)).Sparsity(); float64(zeros)/float64(len(src)) != want {
		t.Fatalf("zero share %v, want %v", float64(zeros)/float64(len(src)), want)
	}
}

func benchBatch(n, size int) []*tensor.Tensor {
	r := rng.New(1)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(64, size, size)
		out[i].FillNormal(r, 0, 1)
	}
	return out
}

// BenchmarkReLUForward and BenchmarkMaxPoolForward run one 16-image batch
// of CIFARNet's relu0 and pool0 (64×32×32 activations) on one worker.
func BenchmarkReLUForward(b *testing.B) {
	ins, outs := benchBatch(16, 32), benchBatch(16, 32)
	l := NewReLU("relu", ins[0].Dims, 1)
	for i := 0; i < b.N; i++ {
		l.Forward(outs, ins)
	}
}

func BenchmarkReLUBackward(b *testing.B) {
	ins, eos, eis := benchBatch(16, 32), benchBatch(16, 32), benchBatch(16, 32)
	l := NewReLU("relu", ins[0].Dims, 1)
	for i := 0; i < b.N; i++ {
		l.Backward(eis, eos, ins)
	}
}

func BenchmarkMaxPoolForward(b *testing.B) {
	ins, outs := benchBatch(16, 32), benchBatch(16, 8)
	l := NewMaxPool("pool", ins[0].Dims, 4, 4, 1)
	for i := 0; i < b.N; i++ {
		l.Forward(outs, ins)
	}
}
