package stencil

// Register-blocked tap kernels for unit-stride convolutions: the faithful
// analogue of the paper's Fig. 7 generated basic block. For each block of
// 4 output columns × N accumulator rows, the 4·N partial sums stay in
// scalar locals across the entire kx reduction — the only memory traffic
// inside the tap loop is the streaming input (whose loads are shared by
// all N rows) and the weight rows. Loads per MAC fall from ~2 (per-MAC
// read-modify-write on the accumulator row) to ~2/Fx + 1/N.
//
// Each tapRowN processes n output columns: dst slices hold n accumulators,
// src at least n+fx-1 input values (element x of row r accumulates
// Σ_kx w_r[kx]·src[x+kx]), and each w* slice that row's fx tap weights.

// tapRow1 reduces one accumulator row.
func tapRow1(d0, src, w0 []float32, fx, n int) {
	d0 = d0[:n]
	w0 = w0[:fx]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		sv := src[x : x+fx+3]
		for kx := 0; kx < fx; kx++ {
			v0, v1, v2, v3 := sv[kx], sv[kx+1], sv[kx+2], sv[kx+3]
			wv := w0[kx]
			s00 += wv * v0
			s01 += wv * v1
			s02 += wv * v2
			s03 += wv * v3
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
	}
	for ; x < n; x++ {
		s := d0[x]
		for kx := 0; kx < fx; kx++ {
			s += w0[kx] * src[x+kx]
		}
		d0[x] = s
	}
}

// tapRow2 reduces two accumulator rows, sharing every input load.
func tapRow2(d0, d1, src, w0, w1 []float32, fx, n int) {
	d0 = d0[:n]
	d1 = d1[:n]
	w0 = w0[:fx]
	w1 = w1[:fx]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		s10, s11, s12, s13 := d1[x], d1[x+1], d1[x+2], d1[x+3]
		sv := src[x : x+fx+3]
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
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
		d1[x], d1[x+1], d1[x+2], d1[x+3] = s10, s11, s12, s13
	}
	for ; x < n; x++ {
		sa, sb := d0[x], d1[x]
		for kx := 0; kx < fx; kx++ {
			v := src[x+kx]
			sa += w0[kx] * v
			sb += w1[kx] * v
		}
		d0[x], d1[x] = sa, sb
	}
}

// tapRow3 reduces three accumulator rows.
func tapRow3(d0, d1, d2, src, w0, w1, w2 []float32, fx, n int) {
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	w0 = w0[:fx]
	w1 = w1[:fx]
	w2 = w2[:fx]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		s10, s11, s12, s13 := d1[x], d1[x+1], d1[x+2], d1[x+3]
		s20, s21, s22, s23 := d2[x], d2[x+1], d2[x+2], d2[x+3]
		sv := src[x : x+fx+3]
		for kx := 0; kx < fx; kx++ {
			v0, v1, v2, v3 := sv[kx], sv[kx+1], sv[kx+2], sv[kx+3]
			w0v, w1v, w2v := w0[kx], w1[kx], w2[kx]
			s00 += w0v * v0
			s01 += w0v * v1
			s02 += w0v * v2
			s03 += w0v * v3
			s10 += w1v * v0
			s11 += w1v * v1
			s12 += w1v * v2
			s13 += w1v * v3
			s20 += w2v * v0
			s21 += w2v * v1
			s22 += w2v * v2
			s23 += w2v * v3
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
		d1[x], d1[x+1], d1[x+2], d1[x+3] = s10, s11, s12, s13
		d2[x], d2[x+1], d2[x+2], d2[x+3] = s20, s21, s22, s23
	}
	for ; x < n; x++ {
		sa, sb, sc := d0[x], d1[x], d2[x]
		for kx := 0; kx < fx; kx++ {
			v := src[x+kx]
			sa += w0[kx] * v
			sb += w1[kx] * v
			sc += w2[kx] * v
		}
		d0[x], d1[x], d2[x] = sa, sb, sc
	}
}

// tapRow4 reduces four accumulator rows — the full register tile
// (16 accumulators + 4 streaming values + 4 weights, matching the plan
// generator's register budget).
func tapRow4(d0, d1, d2, d3, src, w0, w1, w2, w3 []float32, fx, n int) {
	d0 = d0[:n]
	d1 = d1[:n]
	d2 = d2[:n]
	d3 = d3[:n]
	w0 = w0[:fx]
	w1 = w1[:fx]
	w2 = w2[:fx]
	w3 = w3[:fx]
	x := 0
	for ; x+4 <= n; x += 4 {
		s00, s01, s02, s03 := d0[x], d0[x+1], d0[x+2], d0[x+3]
		s10, s11, s12, s13 := d1[x], d1[x+1], d1[x+2], d1[x+3]
		s20, s21, s22, s23 := d2[x], d2[x+1], d2[x+2], d2[x+3]
		s30, s31, s32, s33 := d3[x], d3[x+1], d3[x+2], d3[x+3]
		sv := src[x : x+fx+3]
		for kx := 0; kx < fx; kx++ {
			v0, v1, v2, v3 := sv[kx], sv[kx+1], sv[kx+2], sv[kx+3]
			w0v, w1v, w2v, w3v := w0[kx], w1[kx], w2[kx], w3[kx]
			s00 += w0v * v0
			s01 += w0v * v1
			s02 += w0v * v2
			s03 += w0v * v3
			s10 += w1v * v0
			s11 += w1v * v1
			s12 += w1v * v2
			s13 += w1v * v3
			s20 += w2v * v0
			s21 += w2v * v1
			s22 += w2v * v2
			s23 += w2v * v3
			s30 += w3v * v0
			s31 += w3v * v1
			s32 += w3v * v2
			s33 += w3v * v3
		}
		d0[x], d0[x+1], d0[x+2], d0[x+3] = s00, s01, s02, s03
		d1[x], d1[x+1], d1[x+2], d1[x+3] = s10, s11, s12, s13
		d2[x], d2[x+1], d2[x+2], d2[x+3] = s20, s21, s22, s23
		d3[x], d3[x+1], d3[x+2], d3[x+3] = s30, s31, s32, s33
	}
	for ; x < n; x++ {
		sa, sb, sc, sd := d0[x], d1[x], d2[x], d3[x]
		for kx := 0; kx < fx; kx++ {
			v := src[x+kx]
			sa += w0[kx] * v
			sb += w1[kx] * v
			sc += w2[kx] * v
			sd += w3[kx] * v
		}
		d0[x], d1[x], d2[x], d3[x] = sa, sb, sc, sd
	}
}

// tapRows dispatches one input row's full tap reduction into up to four
// accumulator rows over n output columns.
func tapRows(dsts [][]float32, ws [][]float32, src []float32, fx, n int) {
	switch len(dsts) {
	case 1:
		tapRow1(dsts[0], src, ws[0], fx, n)
	case 2:
		tapRow2(dsts[0], dsts[1], src, ws[0], ws[1], fx, n)
	case 3:
		tapRow3(dsts[0], dsts[1], dsts[2], src, ws[0], ws[1], ws[2], fx, n)
	case 4:
		tapRow4(dsts[0], dsts[1], dsts[2], dsts[3], src, ws[0], ws[1], ws[2], ws[3], fx, n)
	default:
		for i := range dsts {
			tapRow1(dsts[i], src, ws[i], fx, n)
		}
	}
}
