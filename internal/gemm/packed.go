package gemm

import (
	"sync"

	"spgcnn/internal/par"
	"spgcnn/internal/simd"
)

// Packed-operand SGEMM: the B operand is copied once into column panels of
// panelW columns, interleaved along K (panel element 8k+c holds B[k][j+c]),
// and the inner kernel (simd.Tile4x8) streams ONE packed panel against four
// A rows — each K step loads one 8-wide panel row and four broadcast A
// values into four 8-lane accumulators (eight scalar chains per row in the
// scalar fallback). Classical packing (Goto & van de Geijn, the paper's
// [26]) buys contiguity; the interleaved layout additionally
// collapses the eight B-row streams of the dot-orientation kernel into a
// single stream, which is what puts the packed kernel ahead of the blocked
// RMW tile.
//
// The pack costs O(K·N) moves against O(M·K·N) arithmetic, so it amortizes
// across the M output rows of a single call — and across an entire batch
// (and training steps) when the packed operand is a constant weight matrix
// reused via PackedB (packedplan.go).
//
// Accumulation order: every output element is one full-K dot product with a
// single accumulator walking k in increasing order — the same order as
// Naive's inner loop and the same order dotRows8 uses, so the packed path
// is bit-identical to the MulTransB row kernel it accelerates.

// panelW is the packed panel width: eight C columns computed per A-row pass,
// one 8-lane vector (or eight scalar accumulator chains) per row.
const panelW = 8

// packedThreshold selects the packed path in Serial/SerialAccum/Parallel
// once the B footprint (K·N elements) outgrows the regime where the
// pack-free blocked kernel's strided B walk is still cheap. Below it the
// O(K·N) pack is a poor trade for cache-resident operands; above it the
// single-stream panels win decisively (see BenchmarkGemmMicrokernel).
const packedThreshold = 24_576 // K·N elements

// packedMinRows gates the packed path on output height: with fewer rows the
// pack cost is not amortized and the blocked kernel stays ahead.
const packedMinRows = 4

// packBuf holds reusable panel storage for the pack-per-call entry points; a
// zero value is ready to use and grows on demand.
type packBuf struct {
	b []float32
}

// panels returns a buffer of at least n floats, reusing prior storage.
func (p *packBuf) panels(n int) []float32 {
	if cap(p.b) < n {
		p.b = make([]float32, n)
	}
	return p.b[:n]
}

// bufPool recycles packBufs for the pack-per-call paths so steady-state
// training steps do not allocate (Batch runs many Serial instances
// concurrently; sync.Pool keeps them race-free).
var bufPool = sync.Pool{New: func() any { return new(packBuf) }}

// padUp rounds n up to a multiple of panelW.
func padUp(n int) int { return (n + panelW - 1) / panelW * panelW }

// packPanels copies B (K×N row-major) into k-interleaved panels of panelW
// columns: dst[(j/panelW)*K*panelW + k*panelW + c] = B[k][j+c]. Columns past
// N pack as zeros so the kernel needs no column-edge variant. dst must have
// K*padUp(N) elements.
func packPanels(dst []float32, b *Matrix) {
	K, N := b.Rows, b.Cols
	idx := 0
	j := 0
	for ; j+panelW <= N; j += panelW {
		copyStrip8(dst[idx:idx+K*panelW], b.Data[j:], N)
		idx += K * panelW
	}
	if j < N {
		for k := 0; k < K; k++ {
			brow := b.Data[k*N : (k+1)*N]
			for c := 0; c < panelW; c++ {
				if j+c < N {
					dst[idx] = brow[j+c]
				} else {
					dst[idx] = 0
				}
				idx++
			}
		}
	}
}

// packPanelsTrans packs the TRANSPOSE of src (N×K row-major) into the same
// panel layout — the B operand of C = A·srcᵀ without materializing the
// transpose: dst[...] = src[j+c][k]. Each panel gathers eight consecutive
// src rows walked along k (gatherStrip8). Rows past src.Rows pack as zeros.
// dst must have K*padUp(src.Rows) elements.
func packPanelsTrans(dst []float32, src *Matrix) {
	K, N := src.Cols, src.Rows
	idx := 0
	j := 0
	for ; j+panelW <= N; j += panelW {
		gatherStrip8(dst[idx:idx+K*panelW],
			src.Row(j), src.Row(j+1), src.Row(j+2), src.Row(j+3),
			src.Row(j+4), src.Row(j+5), src.Row(j+6), src.Row(j+7))
		idx += K * panelW
	}
	if j < N {
		for k := 0; k < K; k++ {
			for c := 0; c < panelW; c++ {
				if j+c < N {
					dst[idx] = src.Data[(j+c)*K+k]
				} else {
					dst[idx] = 0
				}
				idx++
			}
		}
	}
}

// packedMulRange computes rows [lo, hi) of C = A·B (accum=false overwrites,
// accum=true adds) from pre-packed panels covering all padUp(n) columns.
// n is the live column count (c.Cols). Rows go four at a time through the
// 4×8 register tile (simd.Tile4x8), leftover rows through its one-row
// form; the final partial panel computes into a stack tile whose
// zero-padded columns are simply not stored.
func packedMulRange(c, a *Matrix, panels []float32, n int, lo, hi int, accum bool) {
	K := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		arows := a.Data[i*K:]
		crows := c.Data[i*n:]
		j := 0
		for ; j+panelW <= n; j += panelW {
			simd.Tile4x8(crows[j:], n, arows, K, panels[j*K:(j+panelW)*K], K, accum)
		}
		if j < n {
			var t [4 * panelW]float32
			simd.Tile4x8(t[:], panelW, arows, K, panels[j*K:(j+panelW)*K], K, false)
			for r := 0; r < 4; r++ {
				storePartial(crows[r*n+j:r*n+n], t[r*panelW:], accum)
			}
		}
	}
	for ; i < hi; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		j := 0
		for ; j+panelW <= n; j += panelW {
			simd.Row1x8(crow[j:], arow, panels[j*K:(j+panelW)*K], K, accum)
		}
		if j < n {
			var t [panelW]float32
			simd.Row1x8(t[:], arow, panels[j*K:(j+panelW)*K], K, false)
			storePartial(crow[j:], t[:], accum)
		}
	}
}

// parallelPackedMul runs packedMulRange over every row of C, with rows
// claimed dynamically by workers (par.ForDynamic) in chunks aligned to the
// 4-row tile so that only the last chunk can end in leftover rows. Rows
// write disjoint output and the panels are read-only.
func parallelPackedMul(c, a *Matrix, panels []float32, n, workers int, accum bool) {
	const tileRows = 4
	par.ForDynamic((a.Rows+tileRows-1)/tileRows, workers, 1, func(lo, hi int) {
		packedMulRange(c, a, panels, n, lo*tileRows, min(hi*tileRows, a.Rows), accum)
	})
}

// storePartial stores (or adds) the first len(dst) sums of a partial panel.
func storePartial(dst, sums []float32, accum bool) {
	sums = sums[:len(dst)]
	for c, s := range sums {
		if accum {
			dst[c] += s
		} else {
			dst[c] = s
		}
	}
}

// packedAccum computes C += A·B, packing B's panels into buf for the call.
func packedAccum(buf *packBuf, c, a, b *Matrix) {
	panels := buf.panels(b.Rows * padUp(b.Cols))
	packPanels(panels, b)
	packedMulRange(c, a, panels, b.Cols, 0, a.Rows, true)
}

// PackedSerial computes C = A·B through the packed-panel kernel,
// single-threaded. C is overwritten.
func PackedSerial(c, a, b *Matrix) {
	checkMul(c, a, b)
	buf := bufPool.Get().(*packBuf)
	panels := buf.panels(b.Rows * padUp(b.Cols))
	packPanels(panels, b)
	packedMulRange(c, a, panels, b.Cols, 0, a.Rows, false)
	bufPool.Put(buf)
}

// PackedAccumWith computes C += A·B using caller-owned packing storage
// (reusable across calls, e.g. by a conv kernel invoked per image).
func PackedAccumWith(buf *packBuf, c, a, b *Matrix) {
	checkMul(c, a, b)
	packedAccum(buf, c, a, b)
}
