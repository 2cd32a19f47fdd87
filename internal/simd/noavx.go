//go:build !amd64 || race

package simd

// Without the assembly (other architectures, and -race builds, whose
// detector cannot see assembly memory accesses) every kernel runs its
// scalar version. The stubs below are never called: useAVX is false.

func hasAVX() bool { return false }

const noAsm = "simd: AVX kernel called in a build without assembly"

func tile4x8AVX(c *float32, ldc int, a *float32, lda int, bp *float32, k int, accum bool) {
	panic(noAsm)
}

func row1x8AVX(c, a, bp *float32, k int, accum bool) { panic(noAsm) }

func axpyAVX(dst, src *float32, w float32, n int) { panic(noAsm) }

func tapColumn1AVX(d0 *float32, ops *TapOp, nops, fx, off, n int) { panic(noAsm) }

func tapColumn2AVX(d0, d1 *float32, ops *TapOp, nops, fx, off, n int) { panic(noAsm) }
