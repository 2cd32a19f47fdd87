package blockedconv

// Hot loops of the blocked forward pass, written in the repo's
// bounds-check-eliminated streaming-slice idiom (see gemm/microkernel.go;
// this file is gated by scripts/bce_check.sh). The only compute kernel is
// the packed-GEMM register tile (simd.Tile4x8) — the blocked layout's whole
// point is that the tile's packed-panel operands exist in memory without a
// packing pass. The per-row driver that feeds these loops lives in
// forward.go.

import "spgcnn/internal/simd"

// accRow accumulates one output row of one feature block: each output pixel
// is one row of the GEMM tile, its 8 feature lanes gaining the dot products
// of its input window with the panel's 8 columns. in advances by step
// (= Sx·8) per pixel; the window length is kw = len(wp)/8 (= Fx·8). Pixels
// go four at a time through simd.Tile4x8 while four windows fit, then one
// at a time.
func accRow(out, in, wp []float32, step int) {
	kw := len(wp) / 8
	for len(out) >= 32 && step >= 0 && kw <= len(in) && step <= (len(in)-kw)/3 {
		simd.Tile4x8(out, 8, in, step, wp, kw, true)
		out = out[32:]
		if s4 := 4 * step; uint(s4) <= uint(len(in)) {
			in = in[s4:]
		} else {
			in = in[:0]
		}
	}
	for len(out) >= 8 && len(in) >= kw {
		simd.Row1x8(out, in, wp, kw, true)
		out = out[8:]
		if uint(step) <= uint(len(in)) {
			in = in[step:]
		} else {
			in = in[:0]
		}
	}
}

// zeroRow clears a buffer with an 8-wide streaming store.
func zeroRow(dst []float32) {
	for len(dst) >= 8 {
		dst[0] = 0
		dst[1] = 0
		dst[2] = 0
		dst[3] = 0
		dst[4] = 0
		dst[5] = 0
		dst[6] = 0
		dst[7] = 0
		dst = dst[8:]
	}
	for i := range dst {
		dst[i] = 0
	}
}
