package gemm

import (
	"spgcnn/internal/par"
	"spgcnn/internal/simd"
)

// Parallel computes C = A·B with the M dimension (rows of C) statically
// partitioned across workers, the way MKL/OpenBLAS parallelize a GEMM.
//
// This is the paper's "Parallel-GEMM" baseline. Its defining property
// (§3.2) is that worker w computes rows [w·M/P, (w+1)·M/P) of C, which
// requires that slice of A and of C but the ENTIRE B matrix, so the
// arithmetic intensity per core falls as P grows:
//
//	AIT/core = (2·M·N·K/P) / (M·K/P + K·N + M·N/P)
//
// For the square case this is the paper's n/2 at P=2 versus 2n/3 serial.
// Workers <= 1 degrades to Serial.
func Parallel(c, a, b *Matrix, workers int) {
	checkMul(c, a, b)
	c.Zero()
	ParallelAccum(c, a, b, workers)
}

// ParallelAccum computes C += A·B with rows of C divided across workers.
// Large operands pack B's panels ONCE (read-only, shared by every worker)
// and claim rows through par.ForDynamic's guided chunking, so the pack cost
// is paid once per call instead of once per worker and ragged tails cannot
// idle a core.
func ParallelAccum(c, a, b *Matrix, workers int) {
	checkMul(c, a, b)
	if usePacked(a.Rows, a.Cols, b.Cols) {
		buf := bufPool.Get().(*packBuf)
		panels := buf.panels(b.Rows * padUp(b.Cols))
		packPanels(panels, b)
		parallelPackedMul(c, a, panels, b.Cols, workers, true)
		bufPool.Put(buf)
		return
	}
	par.ForChunked(a.Rows, workers, func(lo, hi int) {
		serialRange(c, a, b, lo, hi)
	})
}

// Batch runs one independent single-threaded GEMM per (c, a, b) triple,
// spreading the instances across workers. This is the execution primitive
// of GEMM-in-Parallel (§4.1): inputs are NOT divided across cores, so the
// per-core AIT — and therefore per-core performance — stays at the
// single-GEMM level no matter how many cores participate.
//
// All three slices must have equal length; instance i computes
// cs[i] = as[i]·bs[i].
func Batch(cs, as, bs []*Matrix, workers int) {
	if len(cs) != len(as) || len(cs) != len(bs) {
		panic("gemm: Batch slice length mismatch")
	}
	for i := range cs {
		checkMul(cs[i], as[i], bs[i])
	}
	par.For(len(cs), workers, func(i int) {
		Serial(cs[i], as[i], bs[i])
	})
}

// MulTransA computes C = Aᵀ·B without materializing the transpose:
// C[i][j] = Σ_k A[k][i]·B[k][j]. Used by the backward-weights GEMM where
// the unfolded input appears transposed. The scatter structure skips
// zero A entries, so sparse error gradients cost only their non-zeros.
func MulTransA(c, a, b *Matrix) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("gemm: MulTransA dimension mismatch")
	}
	c.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, aki := range arow {
			if aki == 0 {
				continue
			}
			simd.Axpy(c.Row(i), brow, aki)
		}
	}
}

// MulTransB computes C = A·Bᵀ without materializing the transpose:
// C[i][j] = Σ_k A[i][k]·B[j][k]. The inner loop is a dot product of two
// contiguous rows — eight B rows at a time (dotRows8) — and large operands
// first pack Bᵀ into interleaved panels so the eight row streams collapse
// into one (simd.Tile4x8). Both forms keep one k-ordered accumulator per
// element, so they are bit-identical.
func MulTransB(c, a, b *Matrix) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("gemm: MulTransB dimension mismatch")
	}
	if usePacked(a.Rows, a.Cols, b.Rows) {
		buf := bufPool.Get().(*packBuf)
		panels := buf.panels(b.Cols * padUp(b.Rows))
		packPanelsTrans(panels, b)
		packedMulRange(c, a, panels, b.Rows, 0, a.Rows, false)
		bufPool.Put(buf)
		return
	}
	mulTransBRange(c, a, b, 0, a.Rows)
}
