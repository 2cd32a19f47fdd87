package gemm

import (
	"spgcnn/internal/par"
	"spgcnn/internal/simd"
)

// Parallel variants of the transpose multiplies, row-partitioned over the
// output matrix C the way a BLAS Parallel-GEMM partitions work. These are
// what the Unfold+Parallel-GEMM baseline uses for the three training GEMMs,
// and they inherit its §3.2 property: every worker reads the whole of one
// operand, so AIT per core shrinks with the worker count.

// ParallelMulTransB computes C = A·Bᵀ with rows of C (= rows of A) claimed
// dynamically by workers (par.ForDynamic): rows write disjoint output, so
// guided chunking is safe, and it absorbs the ragged tail a static split
// leaves on one core. Large operands share one packed-panel copy of Bᵀ.
func ParallelMulTransB(c, a, b *Matrix, workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic("gemm: ParallelMulTransB dimension mismatch")
	}
	if usePacked(a.Rows, a.Cols, b.Rows) {
		buf := bufPool.Get().(*packBuf)
		panels := buf.panels(b.Cols * padUp(b.Rows))
		packPanelsTrans(panels, b)
		parallelPackedMul(c, a, panels, b.Rows, workers, false)
		bufPool.Put(buf)
		return
	}
	par.ForDynamic(a.Rows, workers, 1, func(lo, hi int) {
		mulTransBRange(c, a, b, lo, hi)
	})
}

// mulTransBRange computes rows [lo, hi) of C = A·Bᵀ: eight B rows per
// dotRows8 call while they last, then four, then one. Each output element
// keeps a single k-ordered accumulator, so the 8/4/1 grouping is
// bit-identical to the scalar loop.
func mulTransBRange(c, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		j := 0
		for ; j+8 <= b.Rows; j += 8 {
			s0, s1, s2, s3, s4, s5, s6, s7 := dotRows8(arow,
				b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3),
				b.Row(j+4), b.Row(j+5), b.Row(j+6), b.Row(j+7))
			crow[j] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
			crow[j+4] = s4
			crow[j+5] = s5
			crow[j+6] = s6
			crow[j+7] = s7
		}
		if j+4 <= b.Rows {
			s0, s1, s2, s3 := dotRows4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
			crow[j] = s0
			crow[j+1] = s1
			crow[j+2] = s2
			crow[j+3] = s3
			j += 4
		}
		for ; j < b.Rows; j++ {
			crow[j] = dotRow1(arow, b.Row(j))
		}
	}
}

// ParallelMulTransA computes C = Aᵀ·B with rows of C (= columns of A)
// divided across workers. Each worker walks all of A and B but writes only
// its row slice of C, so no synchronization is needed.
func ParallelMulTransA(c, a, b *Matrix, workers int) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic("gemm: ParallelMulTransA dimension mismatch")
	}
	par.ForChunked(c.Rows, workers, func(lo, hi int) {
		mulTransARange(c, a, b, lo, hi)
	})
}

// mulTransARange computes rows [lo, hi) of C = Aᵀ·B: for each source row k,
// scatter A[k][i]·B[k][*] into C rows i in [lo, hi).
func mulTransARange(c, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		crow := c.Row(i)
		for j := range crow {
			crow[j] = 0
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			aki := arow[i]
			if aki == 0 {
				continue
			}
			simd.Axpy(c.Row(i), brow, aki)
		}
	}
}
