package stencil

// The specialized basic blocks the generator dispatches to. Each saxpyN
// routine is the scalar-Go analogue of the paper's Fig. 7 generated code:
// one streamed input row contributes to N accumulator rows at once, so
// every 4-element group of input loads feeds 4·N multiply-accumulates —
// the load reuse that restores the convolution's arithmetic intensity.
//
// Every routine here is written in the streaming-slice form (advance the
// slice, compare against len) rather than indexed form, with an explicit
// length guard up front: the guard teaches the prove pass the slice
// bounds, so the inner loops compile with zero bounds checks. The file is
// on scripts/bce_check.sh's protected list — keep it clean.
//
// dst rows and src must have at least n elements; weights are broadcast
// scalars, one per destination row (the wvec[..] = mm256_set1(weight[..])
// of Fig. 7).

import "spgcnn/internal/simd"

// saxpy1 computes dst[x] += w * src[x] for x in [0, n) with the shared
// 8-lane axpy (simd.Axpy).
func saxpy1(dst, src []float32, w float32, n int) {
	if n < 0 || n > len(dst) {
		panic("stencil: saxpy1 bounds")
	}
	simd.Axpy(dst[:n], src, w)
}

// saxpy2 streams src once into two accumulator rows.
func saxpy2(d0, d1, src []float32, w0, w1 float32, n int) {
	if n < 0 || n > len(d0) || n > len(d1) || n > len(src) {
		panic("stencil: saxpy2 bounds")
	}
	d0 = d0[:n]
	d1 = d1[:n]
	src = src[:n]
	for len(src) >= 4 && len(d0) >= 4 && len(d1) >= 4 {
		v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
		d0[0] += w0 * v0
		d0[1] += w0 * v1
		d0[2] += w0 * v2
		d0[3] += w0 * v3
		d1[0] += w1 * v0
		d1[1] += w1 * v1
		d1[2] += w1 * v2
		d1[3] += w1 * v3
		src = src[4:]
		d0 = d0[4:]
		d1 = d1[4:]
	}
	for len(src) >= 1 && len(d0) >= 1 && len(d1) >= 1 {
		v := src[0]
		d0[0] += w0 * v
		d1[0] += w1 * v
		src = src[1:]
		d0 = d0[1:]
		d1 = d1[1:]
	}
}

// saxpy3 streams src once into three accumulator rows.
func saxpy3(d0, d1, d2, src []float32, w0, w1, w2 float32, n int) {
	if n < 0 || n > len(d0) || n > len(d1) || n > len(d2) || n > len(src) {
		panic("stencil: saxpy3 bounds")
	}
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	src = src[:n]
	for len(src) >= 4 && len(d0) >= 4 && len(d1) >= 4 && len(d2) >= 4 {
		v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
		d0[0] += w0 * v0
		d0[1] += w0 * v1
		d0[2] += w0 * v2
		d0[3] += w0 * v3
		d1[0] += w1 * v0
		d1[1] += w1 * v1
		d1[2] += w1 * v2
		d1[3] += w1 * v3
		d2[0] += w2 * v0
		d2[1] += w2 * v1
		d2[2] += w2 * v2
		d2[3] += w2 * v3
		src = src[4:]
		d0 = d0[4:]
		d1 = d1[4:]
		d2 = d2[4:]
	}
	for len(src) >= 1 && len(d0) >= 1 && len(d1) >= 1 && len(d2) >= 1 {
		v := src[0]
		d0[0] += w0 * v
		d1[0] += w1 * v
		d2[0] += w2 * v
		src = src[1:]
		d0 = d0[1:]
		d1 = d1[1:]
		d2 = d2[1:]
	}
}

// saxpy4 streams src once into four accumulator rows.
func saxpy4(d0, d1, d2, d3, src []float32, w0, w1, w2, w3 float32, n int) {
	if n < 0 || n > len(d0) || n > len(d1) || n > len(d2) || n > len(d3) || n > len(src) {
		panic("stencil: saxpy4 bounds")
	}
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	d3 = d3[:n]
	src = src[:n]
	for len(src) >= 4 && len(d0) >= 4 && len(d1) >= 4 && len(d2) >= 4 && len(d3) >= 4 {
		v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
		d0[0] += w0 * v0
		d0[1] += w0 * v1
		d0[2] += w0 * v2
		d0[3] += w0 * v3
		d1[0] += w1 * v0
		d1[1] += w1 * v1
		d1[2] += w1 * v2
		d1[3] += w1 * v3
		d2[0] += w2 * v0
		d2[1] += w2 * v1
		d2[2] += w2 * v2
		d2[3] += w2 * v3
		d3[0] += w3 * v0
		d3[1] += w3 * v1
		d3[2] += w3 * v2
		d3[3] += w3 * v3
		src = src[4:]
		d0 = d0[4:]
		d1 = d1[4:]
		d2 = d2[4:]
		d3 = d3[4:]
	}
	for len(src) >= 1 && len(d0) >= 1 && len(d1) >= 1 && len(d2) >= 1 && len(d3) >= 1 {
		v := src[0]
		d0[0] += w0 * v
		d1[0] += w1 * v
		d2[0] += w2 * v
		d3[0] += w3 * v
		src = src[1:]
		d0 = d0[1:]
		d1 = d1[1:]
		d2 = d2[1:]
		d3 = d3[1:]
	}
}

// saxpyRows dispatches one source-row contribution to up to four
// accumulator rows (the per-input-row fan-out of the stencil scatter).
func saxpyRows(dsts [][]float32, ws []float32, src []float32, n int) {
	if len(ws) < len(dsts) {
		panic("stencil: saxpyRows weight count")
	}
	switch len(dsts) {
	case 0:
	case 1:
		saxpy1(dsts[0], src, ws[0], n)
	case 2:
		saxpy2(dsts[0], dsts[1], src, ws[0], ws[1], n)
	case 3:
		saxpy3(dsts[0], dsts[1], dsts[2], src, ws[0], ws[1], ws[2], n)
	case 4:
		saxpy4(dsts[0], dsts[1], dsts[2], dsts[3], src, ws[0], ws[1], ws[2], ws[3], n)
	default:
		for i := range dsts {
			saxpy1(dsts[i], src, ws[i], n)
		}
	}
}

// gatherDot computes Σ_x dst·src for strided source access; used by the
// direct backward-weights kernel where the input walk is strided.
func gatherDot(a []float32, b []float32, stride, n int) float32 {
	if stride == 1 {
		if n < 0 || n > len(a) || n > len(b) {
			panic("stencil: gatherDot bounds")
		}
		a = a[:n]
		b = b[:n]
		var s0, s1, s2, s3 float32
		for len(a) >= 4 && len(b) >= 4 {
			s0 += a[0] * b[0]
			s1 += a[1] * b[1]
			s2 += a[2] * b[2]
			s3 += a[3] * b[3]
			a = a[4:]
			b = b[4:]
		}
		for len(a) >= 1 && len(b) >= 1 {
			s0 += a[0] * b[0]
			a = a[1:]
			b = b[1:]
		}
		return s0 + s1 + s2 + s3
	}
	var s float32
	for n > 0 && len(a) >= 1 && len(b) >= 1 {
		s += a[0] * b[0]
		a = a[1:]
		n--
		if n == 0 {
			break
		}
		// uint compare also rules out negative strides for the prove pass.
		if uint(stride) > uint(len(b)) {
			break
		}
		b = b[stride:]
	}
	return s
}

// scatterAxpy computes dst[x*stride] += w*src[x]; used by the direct
// backward-input kernel for strided convolutions.
func scatterAxpy(dst []float32, src []float32, w float32, stride, n int) {
	if stride == 1 {
		saxpy1(dst, src, w, n)
		return
	}
	for n > 0 && len(src) >= 1 && len(dst) >= 1 {
		dst[0] += w * src[0]
		src = src[1:]
		n--
		if n == 0 {
			break
		}
		if uint(stride) > uint(len(dst)) {
			break
		}
		dst = dst[stride:]
	}
}
