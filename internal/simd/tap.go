package simd

// Scalar tap columns (the fallback and reference for the assembly ones):
// 4 output columns at a time with 4·rows partial sums held in scalar
// locals across the whole op list, then single columns. Each column's sum
// starts from its accumulator and walks ops, then kx, in order.

// tapColumn2 accumulates a 2-row × n-column strip over the full op list.
func tapColumn2(d0, d1 []float32, ops []TapOp, fx, off, n int) {
	d0 = d0[:n]
	d1 = d1[:n]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		s10, s11, s12, s13 := d1[x], d1[x+1], d1[x+2], d1[x+3]
		for o := range ops {
			op := &ops[o]
			sv := op.Src[off+x : off+x+fx+3]
			w0 := op.W0[:fx]
			w1 := op.W1[:fx]
			for kx := 0; kx < fx; kx++ {
				v0, v1, v2, v3 := sv[kx], sv[kx+1], sv[kx+2], sv[kx+3]
				w0v, w1v := w0[kx], w1[kx]
				s00 += w0v * v0
				s01 += w0v * v1
				s02 += w0v * v2
				s03 += w0v * v3
				s10 += w1v * v0
				s11 += w1v * v1
				s12 += w1v * v2
				s13 += w1v * v3
			}
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
		d1[x], d1[x+1], d1[x+2], d1[x+3] = s10, s11, s12, s13
	}
	for ; x < n; x++ {
		sa, sb := d0[x], d1[x]
		for o := range ops {
			op := &ops[o]
			for kx := 0; kx < fx; kx++ {
				v := op.Src[off+x+kx]
				sa += op.W0[kx] * v
				sb += op.W1[kx] * v
			}
		}
		d0[x], d1[x] = sa, sb
	}
}

// tapColumn1 is the single-row variant.
func tapColumn1(d0 []float32, ops []TapOp, fx, off, n int) {
	d0 = d0[:n]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		for o := range ops {
			op := &ops[o]
			sv := op.Src[off+x : off+x+fx+3]
			w0 := op.W0[:fx]
			for kx := 0; kx < fx; kx++ {
				wv := w0[kx]
				s00 += wv * sv[kx]
				s01 += wv * sv[kx+1]
				s02 += wv * sv[kx+2]
				s03 += wv * sv[kx+3]
			}
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
	}
	for ; x < n; x++ {
		s := d0[x]
		for o := range ops {
			op := &ops[o]
			for kx := 0; kx < fx; kx++ {
				s += op.W0[kx] * op.Src[off+x+kx]
			}
		}
		d0[x] = s
	}
}
