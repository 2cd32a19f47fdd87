package tensor

import "fmt"

// Allocation-free variants of the layout transforms, used by kernels that
// run the transform on every invocation (the Sparse-Kernel transforms EO,
// W, EI and I per §4.2) and keep preallocated scratch.

// CHWToHWCInto writes the [H][W][C] layout of src ([C][H][W]) into dst.
func CHWToHWCInto(dst, src *Tensor) {
	if src.Rank() != 3 || dst.Rank() != 3 {
		panic("tensor: CHWToHWCInto needs rank-3 tensors")
	}
	c, h, w := src.Dims[0], src.Dims[1], src.Dims[2]
	if dst.Dims[0] != h || dst.Dims[1] != w || dst.Dims[2] != c {
		panic(fmt.Sprintf("tensor: CHWToHWCInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	plane := h * w
	ci := 0
	// Eight channels at a time, so each pixel's values land in one
	// contiguous run of dst instead of eight writes a row of dst apart.
	for ; ci+8 <= c; ci += 8 {
		r := src.Data[ci*plane : (ci+8)*plane]
		r0, r1, r2, r3 := r[:plane], r[plane:2*plane], r[2*plane:3*plane], r[3*plane:4*plane]
		r4, r5, r6, r7 := r[4*plane:5*plane], r[5*plane:6*plane], r[6*plane:7*plane], r[7*plane:]
		for p := 0; p < plane; p++ {
			d := dst.Data[p*c+ci : p*c+ci+8]
			d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
			d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
		}
	}
	for ; ci < c; ci++ {
		for p, v := range src.Data[ci*plane : (ci+1)*plane] {
			dst.Data[p*c+ci] = v
		}
	}
}

// HWCToCHWInto writes the [C][H][W] layout of src ([H][W][C]) into dst.
func HWCToCHWInto(dst, src *Tensor) {
	if src.Rank() != 3 || dst.Rank() != 3 {
		panic("tensor: HWCToCHWInto needs rank-3 tensors")
	}
	h, w, c := src.Dims[0], src.Dims[1], src.Dims[2]
	if dst.Dims[0] != c || dst.Dims[1] != h || dst.Dims[2] != w {
		panic(fmt.Sprintf("tensor: HWCToCHWInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	for yi := 0; yi < h; yi++ {
		for xi := 0; xi < w; xi++ {
			src0 := src.Row3(yi, xi)
			for ci := 0; ci < c; ci++ {
				dst.Data[(ci*h+yi)*w+xi] = src0[ci]
			}
		}
	}
}

// FCKKToKKFCInto writes the [Ky][Kx][F][C] layout of src ([F][C][Ky][Kx])
// into dst.
func FCKKToKKFCInto(dst, src *Tensor) {
	if src.Rank() != 4 || dst.Rank() != 4 {
		panic("tensor: FCKKToKKFCInto needs rank-4 tensors")
	}
	f, c, ky, kx := src.Dims[0], src.Dims[1], src.Dims[2], src.Dims[3]
	if dst.Dims[0] != ky || dst.Dims[1] != kx || dst.Dims[2] != f || dst.Dims[3] != c {
		panic(fmt.Sprintf("tensor: FCKKToKKFCInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	for fi := 0; fi < f; fi++ {
		for ci := 0; ci < c; ci++ {
			srcBase := (fi*c + ci) * ky * kx
			for yi := 0; yi < ky; yi++ {
				for xi := 0; xi < kx; xi++ {
					dst.Data[((yi*kx+xi)*f+fi)*c+ci] = src.Data[srcBase+yi*kx+xi]
				}
			}
		}
	}
}

// KKFCToFCKKInto writes the [F][C][Ky][Kx] layout of src ([Ky][Kx][F][C])
// into dst.
func KKFCToFCKKInto(dst, src *Tensor) {
	if src.Rank() != 4 || dst.Rank() != 4 {
		panic("tensor: KKFCToFCKKInto needs rank-4 tensors")
	}
	ky, kx, f, c := src.Dims[0], src.Dims[1], src.Dims[2], src.Dims[3]
	if dst.Dims[0] != f || dst.Dims[1] != c || dst.Dims[2] != ky || dst.Dims[3] != kx {
		panic(fmt.Sprintf("tensor: KKFCToFCKKInto dst %v incompatible with src %v", dst.Dims, src.Dims))
	}
	for yi := 0; yi < ky; yi++ {
		for xi := 0; xi < kx; xi++ {
			srcBase := (yi*kx + xi) * f * c
			for fi := 0; fi < f; fi++ {
				for ci := 0; ci < c; ci++ {
					dst.Data[((fi*c+ci)*ky+yi)*kx+xi] = src.Data[srcBase+fi*c+ci]
				}
			}
		}
	}
}
