//go:build amd64 && !race

package simd

// cpuid and xgetbv are the raw instructions (cpu_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX reports whether the CPU implements AVX and the OS saves ymm state
// across context switches: CPUID.1:ECX must show OSXSAVE (bit 27) and AVX
// (bit 28), and XCR0 must enable both the XMM (bit 1) and YMM (bit 2)
// state components.
func hasAVX() bool {
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}

// The AVX kernels (kernels_amd64.s). Callers are the checked wrappers in
// simd.go; the assembly trusts every pointer and count it is given.

//go:noescape
func tile4x8AVX(c *float32, ldc int, a *float32, lda int, bp *float32, k int, accum bool)

//go:noescape
func row1x8AVX(c, a, bp *float32, k int, accum bool)

//go:noescape
func axpyAVX(dst, src *float32, w float32, n int)

//go:noescape
func tapColumn1AVX(d0 *float32, ops *TapOp, nops, fx, off, n int)

//go:noescape
func tapColumn2AVX(d0, d1 *float32, ops *TapOp, nops, fx, off, n int)
