package simd

// Scalar kernels: the fallback for builds and CPUs without the assembly,
// and the reference the assembly is tested against bit for bit. They are
// written in the repo's bounds-check-eliminated streaming-slice idiom
// (advance the slices, bound the loop by len(); see gemm/microkernel.go),
// and scripts/bce_check.sh gates this file.

// microDot8 returns eight full-K dot products of one A row against one
// k-interleaved panel (bp[8k+c] = B[k][c]). Exactly two slices advance per
// iteration, feeding eight accumulator chains with the K loop unrolled 4x.
// Each sum is one accumulator walking k in increasing order.
func microDot8(a, bp []float32) (s0, s1, s2, s3, s4, s5, s6, s7 float32) {
	for len(a) >= 4 && len(bp) >= 32 {
		av := a[0]
		s0 += av * bp[0]
		s1 += av * bp[1]
		s2 += av * bp[2]
		s3 += av * bp[3]
		s4 += av * bp[4]
		s5 += av * bp[5]
		s6 += av * bp[6]
		s7 += av * bp[7]
		av = a[1]
		s0 += av * bp[8]
		s1 += av * bp[9]
		s2 += av * bp[10]
		s3 += av * bp[11]
		s4 += av * bp[12]
		s5 += av * bp[13]
		s6 += av * bp[14]
		s7 += av * bp[15]
		av = a[2]
		s0 += av * bp[16]
		s1 += av * bp[17]
		s2 += av * bp[18]
		s3 += av * bp[19]
		s4 += av * bp[20]
		s5 += av * bp[21]
		s6 += av * bp[22]
		s7 += av * bp[23]
		av = a[3]
		s0 += av * bp[24]
		s1 += av * bp[25]
		s2 += av * bp[26]
		s3 += av * bp[27]
		s4 += av * bp[28]
		s5 += av * bp[29]
		s6 += av * bp[30]
		s7 += av * bp[31]
		a = a[4:]
		bp = bp[32:]
	}
	for len(a) >= 1 && len(bp) >= 8 {
		av := a[0]
		s0 += av * bp[0]
		s1 += av * bp[1]
		s2 += av * bp[2]
		s3 += av * bp[3]
		s4 += av * bp[4]
		s5 += av * bp[5]
		s6 += av * bp[6]
		s7 += av * bp[7]
		a = a[1:]
		bp = bp[8:]
	}
	return
}

// row1x8 stores (accum false) or adds (accum true) microDot8(a, bp) into
// c[0:8].
func row1x8(c, a, bp []float32, accum bool) {
	s0, s1, s2, s3, s4, s5, s6, s7 := microDot8(a, bp)
	if len(c) < 8 {
		panic("simd: row1x8 output too short")
	}
	if accum {
		c[0] += s0
		c[1] += s1
		c[2] += s2
		c[3] += s3
		c[4] += s4
		c[5] += s5
		c[6] += s6
		c[7] += s7
		return
	}
	c[0] = s0
	c[1] = s1
	c[2] = s2
	c[3] = s3
	c[4] = s4
	c[5] = s5
	c[6] = s6
	c[7] = s7
}

// axpy computes dst[i] += w*src[i] over min(len(dst), len(src)),
// 4-wide unrolled.
func axpy(dst, src []float32, w float32) {
	for len(dst) >= 4 && len(src) >= 4 {
		v0, v1, v2, v3 := src[0], src[1], src[2], src[3]
		dst[0] += w * v0
		dst[1] += w * v1
		dst[2] += w * v2
		dst[3] += w * v3
		dst = dst[4:]
		src = src[4:]
	}
	for i := range dst {
		if i >= len(src) {
			break
		}
		dst[i] += w * src[i]
	}
}
