// Package simd holds the innermost loops every convolution engine runs
// through: the packed-panel GEMM tile (also the blocked NCHW8 forward
// pass), the stencil engine's tap columns, and the one axpy the sparse and
// GEMM-scatter paths share. Each kernel has two implementations:
//
//   - an 8-lane AVX version in Go assembly (kernels_amd64.s), the analogue
//     of the paper's generated AVX basic blocks (§4.3, Fig. 7), selected
//     once at init when CPUID and XGETBV report AVX with OS-saved ymm
//     state;
//   - the scalar Go version (scalar.go, tap.go), which runs on other
//     architectures, on CPUs without AVX, and in -race builds — the race
//     detector does not see memory accesses made by assembly, so race
//     builds must run kernels it can instrument.
//
// The two are bit-identical. The assembly multiplies with VMULPS and adds
// with VADDPS (never a fused multiply-add), keeps one accumulator per
// output element and walks the reduction index in ascending order, exactly
// as the scalar loop does; vector lanes only compute several independent
// outputs at once.
//
// Bounds checks stay in Go. The assembly checks nothing, so before calling
// it every exported wrapper checks each slice length the assembly will
// touch and panics on a short operand; the scalar kernels are checked by
// the compiler's own bounds checks.
package simd

import "unsafe"

// useAVX selects the assembly kernels. It is fixed at init (hasAVX is
// false in builds without the assembly); only ScalarForTest changes it.
var useAVX = hasAVX()

// Enabled reports whether the AVX kernels run in this process.
func Enabled() bool { return useAVX }

// ScalarForTest routes every kernel through its scalar version until the
// returned restore function runs — used by tests and by the microkernel
// bench's scalar-vs-vector comparison. Not for use outside tests and
// benchmarks, and not concurrently with running kernels.
func ScalarForTest() (restore func()) {
	old := useAVX
	useAVX = false
	return func() { useAVX = old }
}

// ptr returns the address of s's first element (s's data pointer even
// when s is empty); the assembly reads only what the wrapper checked.
func ptr(s []float32) *float32 { return unsafe.SliceData(s) }

// fits4 reports whether a slice of length n holds four rows of width
// elements spaced stride apart: 3·stride+width <= n, without overflow.
func fits4(n, stride, width int) bool {
	return stride >= 0 && width >= 0 && width <= n && stride <= (n-width)/3
}

// Tile4x8 computes a 4×8 tile of C from four A rows and one packed panel:
// for r < 4 and j < 8,
//
//	s[r][j] = Σ_{k'<k} a[r·lda+k'] · bp[8k'+j]   (one accumulator, k' ascending)
//	c[r·ldc+j] = s[r][j]        (accum == false)
//	c[r·ldc+j] += s[r][j]       (accum == true)
//
// bp is the k-interleaved panel layout of the packed GEMM (bp[8k'+j] =
// B[k'][j]). The blocked NCHW8 forward pass uses the same tile with four
// output pixels as rows: lda is the pixel step and ldc the 8-lane block.
func Tile4x8(c []float32, ldc int, a []float32, lda int, bp []float32, k int, accum bool) {
	if k < 0 || !fits4(len(a), lda, k) || len(bp)/8 < k || !fits4(len(c), ldc, 8) {
		panic("simd: Tile4x8 operand too short")
	}
	if useAVX {
		tile4x8AVX(ptr(c), ldc, ptr(a), lda, ptr(bp), k, accum)
		return
	}
	for r := 0; r < 4; r++ {
		row1x8(c[r*ldc:], a[r*lda:r*lda+k], bp, accum)
	}
}

// Row1x8 is the one-row Tile4x8, for the rows left over below a multiple
// of four: c[j] (+)= Σ_{k'<k} a[k']·bp[8k'+j] for j < 8.
func Row1x8(c, a, bp []float32, k int, accum bool) {
	if k < 0 || len(a) < k || len(bp)/8 < k || len(c) < 8 {
		panic("simd: Row1x8 operand too short")
	}
	if useAVX {
		row1x8AVX(ptr(c), ptr(a), ptr(bp), k, accum)
		return
	}
	row1x8(c, a[:k], bp, accum)
}

// Axpy computes dst[i] += w·src[i] for every i < len(dst). src must be at
// least as long as dst. Rows shorter than one vector (the channel rows of
// the sparse kernel's scatter, Nc = 3 on a first layer) skip the call into
// assembly.
func Axpy(dst, src []float32, w float32) {
	if len(src) < len(dst) {
		panic("simd: Axpy src shorter than dst")
	}
	if useAVX && len(dst) >= 8 {
		axpyAVX(ptr(dst), ptr(src), w, len(dst))
		return
	}
	axpy(dst, src[:len(dst)], w)
}

// TapOp is one input row's contribution to a 1- or 2-row stencil register
// tile: the input row and the Fx-long weight rows of the two output rows
// (W1 is unused by TapColumn1). An op list covers every (channel, input
// row) pair of one (feature, row block), so a tap column keeps its
// accumulators in registers across the whole Nc·(ry+Fy−1)·Fx reduction.
type TapOp struct {
	Src, W0, W1 []float32
}

// TapColumn1 accumulates one output row over a whole op list: for x < n,
//
//	d0[x] += Σ_ops Σ_{kx<fx} op.W0[kx] · op.Src[off+x+kx]
//
// summed into the single accumulator d0[x] in op order, then kx order.
func TapColumn1(d0 []float32, ops []TapOp, fx, off, n int) {
	x := 0
	if useAVX && n >= 8 && fx > 0 && len(ops) > 0 {
		checkTap("TapColumn1", d0, d0, ops, fx, off, n, false)
		x = n &^ 7
		tapColumn1AVX(ptr(d0), &ops[0], len(ops), fx, off, x)
	}
	tapColumn1(d0[x:], ops, fx, off+x, n-x)
}

// TapColumn2 is TapColumn1 for a 2-row tile: d0 accumulates the W0 taps
// and d1 the W1 taps of every op, sharing each input load.
func TapColumn2(d0, d1 []float32, ops []TapOp, fx, off, n int) {
	x := 0
	if useAVX && n >= 8 && fx > 0 && len(ops) > 0 {
		checkTap("TapColumn2", d0, d1, ops, fx, off, n, true)
		x = n &^ 7
		tapColumn2AVX(ptr(d0), ptr(d1), &ops[0], len(ops), fx, off, x)
	}
	tapColumn2(d0[x:], d1[x:], ops, fx, off+x, n-x)
}

// checkTap panics unless every operand the assembly tap columns read or
// write is long enough: n accumulators per row, fx weights per used row,
// and off+n+fx−1 input values per op. It walks the whole op list, so it
// runs only where the assembly does; the scalar columns index through the
// compiler's own bounds checks.
func checkTap(name string, d0, d1 []float32, ops []TapOp, fx, off, n int, two bool) {
	if fx < 0 || off < 0 || n < 0 || len(d0) < n || len(d1) < n {
		panic("simd: " + name + " operand too short")
	}
	for i := range ops {
		op := &ops[i]
		if len(op.W0) < fx || (two && len(op.W1) < fx) ||
			(n > 0 && fx > 0 && (off > len(op.Src) || len(op.Src)-off < n+fx-1)) {
			panic("simd: " + name + " operand too short")
		}
	}
}
