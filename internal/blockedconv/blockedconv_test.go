package blockedconv

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/exec"
	"spgcnn/internal/rng"
	"spgcnn/internal/simd"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

func TestConformance(t *testing.T) {
	enginetest.Run(t, Generator(), enginetest.Options{})
}

// TestDifferential fuzzes the blocked engine against the serial unfold+GEMM
// lowering over random geometries, stride > 1, odd shapes and weight
// sparsities up to 0.99 (the tentpole's bit-compatibility gate).
func TestDifferential(t *testing.T) {
	enginetest.RunDifferential(t, Generator(), unfoldgemm.Generator(1), enginetest.DiffOptions{
		WeightSparsities: []float64{0, 0.5, 0.9, 0.99},
		ExtraSpecs: []conv.Spec{
			conv.Square(36, 64, 3, 5, 1), // CIFAR L0: panel width 40
			conv.Square(16, 17, 9, 3, 1), // both channel axes with tail blocks
			conv.Square(12, 8, 16, 3, 2), // strided, exact blocks
			{Nx: 19, Ny: 9, Nc: 11, Nf: 13, Fx: 3, Fy: 2, Sx: 3, Sy: 2},
		},
	})
}

// TestNativeBlockedPath pins the engine.BlockedKernel seam: running FP on
// pre-blocked tensors must produce bit-identically the same values as the
// canonical NCHW entry point (both paths execute the same forwardBlocked).
func TestNativeBlockedPath(t *testing.T) {
	r := rng.New(7)
	c := exec.New(1)
	for _, s := range []conv.Spec{
		conv.Square(9, 3, 2, 3, 1),
		conv.Square(12, 16, 9, 3, 1),
		{Nx: 11, Ny: 7, Nc: 5, Nf: 10, Fx: 3, Fy: 2, Sx: 2, Sy: 1},
	} {
		k := New(s)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		w.Bump()

		want := conv.NewOutput(s)
		k.ForwardBatch(c, []*tensor.Tensor{want}, []*tensor.Tensor{in}, w)

		inb := tensor.ToBlocked(in)
		outb := conv.NewBlockedOutput(s)
		k.ForwardBlockedBatch(c, []*tensor.Tensor{outb}, []*tensor.Tensor{inb}, w)
		got := tensor.FromBlocked(outb, s.Nf)
		if !tensor.Identical(got, want) {
			t.Fatalf("%v: native blocked FP differs from NCHW entry point", s)
		}
	}
}

// TestVectorMatchesScalar runs FP with the scalar kernels and with the
// kernels this process selected (AVX where available): output widths that
// are not a multiple of the 4-pixel tile, strides 1 to 3 and channel tails
// must give bit-identical outputs.
func TestVectorMatchesScalar(t *testing.T) {
	r := rng.New(12)
	c := exec.New(1)
	for _, s := range []conv.Spec{
		conv.Square(36, 64, 3, 5, 1),
		conv.Square(10, 9, 11, 3, 1),
		{Nx: 19, Ny: 9, Nc: 11, Nf: 13, Fx: 3, Fy: 2, Sx: 3, Sy: 2},
		{Nx: 14, Ny: 6, Nc: 8, Nf: 8, Fx: 4, Fy: 1, Sx: 2, Sy: 1},
	} {
		k := New(s)
		in := conv.RandInput(r, s)
		w := conv.RandWeights(r, s)
		w.Bump()
		scalar, vector := conv.NewOutput(s), conv.NewOutput(s)
		restore := simd.ScalarForTest()
		k.ForwardBatch(c, []*tensor.Tensor{scalar}, []*tensor.Tensor{in}, w)
		restore()
		k.ForwardBatch(c, []*tensor.Tensor{vector}, []*tensor.Tensor{in}, w)
		if !tensor.Identical(vector, scalar) {
			t.Fatalf("%v: FP with the selected kernels differs from the scalar kernels", s)
		}
	}
}

// TestEndToEndBlockedPipeline chains two conv layers through the
// engine.BlockedKernel seam: the intermediate activation stays blocked and
// is never converted. The result must match the all-NCHW pipeline bitwise.
func TestEndToEndBlockedPipeline(t *testing.T) {
	r := rng.New(11)
	c := exec.New(1)
	s1 := conv.Square(14, 12, 3, 3, 1)                                         // 14x14x3 -> 12x12x12
	s2 := conv.Spec{Nx: 12, Ny: 12, Nc: 12, Nf: 5, Fx: 3, Fy: 3, Sx: 1, Sy: 1} // -> 10x10x5
	k1, k2 := New(s1), New(s2)
	in := conv.RandInput(r, s1)
	w1, w2 := conv.RandWeights(r, s1), conv.RandWeights(r, s2)
	w1.Bump()
	w2.Bump()

	// Reference: canonical NCHW at every seam.
	mid := conv.NewOutput(s1)
	want := conv.NewOutput(s2)
	k1.ForwardBatch(c, []*tensor.Tensor{mid}, []*tensor.Tensor{in}, w1)
	k2.ForwardBatch(c, []*tensor.Tensor{want}, []*tensor.Tensor{mid}, w2)

	// Blocked pipeline: convert only at ingest and egress, and drive both
	// layers through the interface the net-level executor would use.
	var b1, b2 engine.BlockedKernel = k1, k2
	inb := tensor.ToBlocked(in)
	midb := conv.NewBlockedOutput(s1)
	outb := conv.NewBlockedOutput(s2)
	b1.ForwardBlockedBatch(c, []*tensor.Tensor{midb}, []*tensor.Tensor{inb}, w1)
	b2.ForwardBlockedBatch(c, []*tensor.Tensor{outb}, []*tensor.Tensor{midb}, w2)
	got := tensor.FromBlocked(outb, s2.Nf)
	if !tensor.Identical(got, want) {
		t.Fatal("end-to-end blocked pipeline differs from NCHW pipeline")
	}
}

// TestWeightBlockCache verifies the per-Ver cache: repeated FP with the
// same weights blocks once; a Bump re-blocks.
func TestWeightBlockCache(t *testing.T) {
	r := rng.New(3)
	c := exec.New(1)
	s := conv.Square(9, 10, 5, 3, 1)
	k := New(s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Bump()
	out := conv.NewOutput(s)
	for i := 0; i < 3; i++ {
		k.ForwardBatch(c, []*tensor.Tensor{out}, []*tensor.Tensor{in}, w)
	}
	hit, _ := c.Probe().SpanStats(k.spanHit)
	miss, _ := c.Probe().SpanStats(k.spanMiss)
	if miss.Calls != 1 || hit.Calls != 2 {
		t.Fatalf("after 3 calls: %d misses, %d hits (want 1, 2)", miss.Calls, hit.Calls)
	}
	w.Bump()
	k.ForwardBatch(c, []*tensor.Tensor{out}, []*tensor.Tensor{in}, w)
	if got, _ := c.Probe().SpanStats(k.spanMiss); got.Calls != 2 {
		t.Fatalf("Bump did not invalidate the weight-block cache: %d misses", got.Calls)
	}
}

func BenchmarkForwardBlocked(b *testing.B) {
	r := rng.New(1)
	c := exec.New(1)
	s := conv.Square(36, 64, 3, 5, 1)
	k := New(s)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	w.Bump()
	out := conv.NewOutput(s)
	outs, ins := []*tensor.Tensor{out}, []*tensor.Tensor{in}
	k.ForwardBatch(c, outs, ins, w)
	b.SetBytes(int64(4 * len(in.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ForwardBatch(c, outs, ins, w)
	}
}
