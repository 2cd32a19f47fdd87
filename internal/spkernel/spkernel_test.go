package spkernel

import (
	"testing"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/engine/enginetest"
	"spgcnn/internal/rng"
	"spgcnn/internal/simd"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

func TestDifferentialVsUnfoldGEMM(t *testing.T) {
	// The sparse kernel's whole point is the high-sparsity regime, so the
	// sweep leans there on top of the default dense-to-0.99 ladder.
	enginetest.RunDifferential(t, Generator(), unfoldgemm.Generator(1), enginetest.DiffOptions{
		Seed:       0xD1F5,
		Sparsities: []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99},
	})
}

func TestConformance(t *testing.T) {
	enginetest.Run(t, Generator(), enginetest.Options{
		Trials: 25,
		Seed:   21,
		ExtraSpecs: []conv.Spec{
			conv.Square(28, 20, 1, 5, 1),  // MNIST L0
			conv.Square(8, 64, 64, 5, 1),  // CIFAR L1
			conv.Square(20, 8, 3, 5, 2),   // strided
			conv.Square(12, 130, 2, 3, 1), // Nf spans >2 CT-CSR tiles
		},
	})
}

func TestConformanceTileWidths(t *testing.T) {
	for _, tw := range []int{1, 3, 16, 1024} {
		tw := tw
		gen := engine.Generator{
			Name: "sparse-tiled",
			New:  func(s conv.Spec) engine.Kernel { return New(s, tw) },
		}
		enginetest.Run(t, gen, enginetest.Options{Trials: 6, Seed: uint64(200 + tw)})
	}
}

func TestFullySparseEOGivesZeroGradients(t *testing.T) {
	s := conv.Square(10, 4, 3, 3, 1)
	r := rng.New(1)
	k := New(s, 0)
	in := conv.RandInput(r, s)
	w := conv.RandWeights(r, s)
	eo := conv.NewOutput(s) // all zeros

	ei := conv.NewInput(s)
	ei.FillUniform(r, 1, 2)
	k.BackwardInput(ei, eo, w)
	if ei.NNZ() != 0 {
		t.Fatal("zero EO produced non-zero EI")
	}
	dw := conv.NewWeights(s)
	dw.FillUniform(r, 1, 2)
	k.BackwardWeights(dw, eo, in)
	if dw.NNZ() != 0 {
		t.Fatal("zero EO produced non-zero dW")
	}
}

func TestSingleNonZeroPointerShift(t *testing.T) {
	// One non-zero EO[f=1, y'=2, x'=1] with stride (2,1) must land
	// exactly on EI[c, 2·2+ky, 1·1+kx] = eo·W[1,c,ky,kx] (Eq. 15).
	s := conv.Spec{Nx: 9, Ny: 9, Nc: 2, Nf: 3, Fx: 2, Fy: 2, Sx: 1, Sy: 2}
	r := rng.New(2)
	w := conv.RandWeights(r, s)
	eo := conv.NewOutput(s)
	eo.Set3(1, 2, 1, 5)
	ei := conv.NewInput(s)
	New(s, 0).BackwardInput(ei, eo, w)
	for c := 0; c < s.Nc; c++ {
		for ky := 0; ky < s.Fy; ky++ {
			for kx := 0; kx < s.Fx; kx++ {
				want := 5 * w.At4(1, c, ky, kx)
				if got := ei.At3(c, 4+ky, 1+kx); got != want {
					t.Fatalf("EI[%d,%d,%d] = %v, want %v", c, 4+ky, 1+kx, got, want)
				}
			}
		}
	}
	// Everything else must be zero: exactly Nc·Fy·Fx positions written.
	if ei.NNZ() > s.Nc*s.Fy*s.Fx {
		t.Fatalf("EI has %d non-zeros, want <= %d", ei.NNZ(), s.Nc*s.Fy*s.Fx)
	}
}

func TestWorkScalesWithNNZ(t *testing.T) {
	// The defining property of the sparse kernel: zero entries cost
	// nothing. We verify semantically (identical results whether zeros are
	// explicit or the tensor is mostly empty) and via NonZeroFlops.
	s := conv.Square(12, 6, 4, 3, 1)
	if NonZeroFlops(s, 0) != 0 {
		t.Fatal("zero nnz should be zero flops")
	}
	if NonZeroFlops(s, 10) != 2*10*3*3*4 {
		t.Fatalf("NonZeroFlops = %d", NonZeroFlops(s, 10))
	}
}

func TestSparseMatchesReferenceAcrossSparsities(t *testing.T) {
	r := rng.New(3)
	s := conv.Square(14, 8, 5, 3, 1)
	k := New(s, 4)
	w := conv.RandWeights(r, s)
	in := conv.RandInput(r, s)
	for _, sp := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.97, 1} {
		eo := conv.RandOutputError(r, s, sp)
		gotEI, wantEI := conv.NewInput(s), conv.NewInput(s)
		k.BackwardInput(gotEI, eo, w)
		conv.BackwardInputRef(s, wantEI, eo, w)
		if !tensor.AlmostEqual(gotEI, wantEI, 1e-3) {
			t.Fatalf("EI differs at sparsity %v", sp)
		}
		gotDW, wantDW := conv.NewWeights(s), conv.NewWeights(s)
		k.BackwardWeights(gotDW, eo, in)
		conv.BackwardWeightsRef(s, wantDW, eo, in)
		if !tensor.AlmostEqual(gotDW, wantDW, 1e-3) {
			t.Fatalf("dW differs at sparsity %v", sp)
		}
	}
}

func TestAxpy(t *testing.T) {
	for n := 0; n <= 9; n++ {
		dst := make([]float32, n)
		src := make([]float32, n)
		for i := range src {
			dst[i] = float32(i)
			src[i] = float32(i * i)
		}
		simd.Axpy(dst, src, 2)
		for i := range dst {
			want := float32(i) + 2*float32(i*i)
			if dst[i] != want {
				t.Fatalf("n=%d: axpy[%d] = %v, want %v", n, i, dst[i], want)
			}
		}
	}
}

func benchBP(b *testing.B, sparsity float64) {
	s := conv.Square(32, 32, 32, 4, 1) // Table 1 ID 0
	r := rng.New(1)
	w := conv.RandWeights(r, s)
	eo := conv.RandOutputError(r, s, sparsity)
	ei := conv.NewInput(s)
	k := New(s, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardInput(ei, eo, w)
	}
	nzf := NonZeroFlops(s, eo.NNZ())
	b.ReportMetric(float64(nzf)*float64(b.N)/b.Elapsed().Seconds()/1e9, "goodput-GFlops")
}

func BenchmarkBackwardInputSparsity50(b *testing.B) { benchBP(b, 0.50) }
func BenchmarkBackwardInputSparsity85(b *testing.B) { benchBP(b, 0.85) }
func BenchmarkBackwardInputSparsity97(b *testing.B) { benchBP(b, 0.97) }
