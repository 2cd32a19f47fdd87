package spweight

// Hot loops of the sparse-weight forward pass, in the repo's bounds-check-
// eliminated streaming-slice idiom (gated by scripts/bce_check.sh). Each
// surviving tap is one saxpy of an input row window into an output row —
// the per-element work of the dense path with every zero-weight term gone.
// Unit-stride taps use the shared 8-lane axpy (simd.Axpy); the per-tap
// driver that feeds these loops lives in forward.go.

// axpyRowStride computes dst[i] += v·src[i·stride].
func axpyRowStride(dst, src []float32, v float32, stride int) {
	for len(dst) >= 1 && len(src) >= 1 {
		dst[0] += v * src[0]
		dst = dst[1:]
		if uint(stride) <= uint(len(src)) {
			src = src[stride:]
		} else {
			src = src[:0]
		}
	}
}

// zeroBuf clears a buffer with a 4-wide streaming store.
func zeroBuf(dst []float32) {
	for len(dst) >= 4 {
		dst[0] = 0
		dst[1] = 0
		dst[2] = 0
		dst[3] = 0
		dst = dst[4:]
	}
	for i := range dst {
		dst[i] = 0
	}
}
