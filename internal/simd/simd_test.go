package simd

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// defaultNaN is the NaN x86 produces for an invalid operation such as
// Inf·0 or Inf−Inf.
var defaultNaN = math.Float32frombits(0xffc00000)

// specials are the values the same-bits property must survive: signed
// zeros, subnormals, infinities and NaN. Its only NaN is defaultNaN, so
// every NaN an operation can meet carries the same payload.
var specials = []float32{
	float32(math.Copysign(0, -1)), 0,
	math.Float32frombits(1), math.Float32frombits(0x807fffff), math.Float32frombits(0x00400000),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	defaultNaN,
}

// foreignNaNs carry other payloads. When two NaNs with different payloads
// meet, x86 returns the first source operand's, and the Go compiler picks
// operand order per register allocation — the scalar kernels themselves
// fix no payload there (tapColumn1 orders its four columns differently).
var foreignNaNs = []float32{float32(math.NaN()), math.Float32frombits(0x7fc00123)}

// mix describes one kind of test operand: roughly one value in every is
// drawn from pool (every 0: none). exact demands identical bits; otherwise
// a NaN may differ from the scalar result in payload only.
type mix struct {
	every int
	pool  []float32
	exact bool
}

// mixes: no specials, a sprinkle, special-heavy operands, and foreign NaN
// payloads.
var mixes = []mix{
	{0, nil, true},
	{29, specials, true},
	{3, specials, true},
	{7, append(append([]float32(nil), specials...), foreignNaNs...), false},
}

func (m mix) String() string { return fmt.Sprintf("specials 1/%d exact=%v", m.every, m.exact) }

// randVec returns n values in [-2, 2), with specials mixed in as m says.
func randVec(r *rand.Rand, n int, m mix) []float32 {
	v := make([]float32, n)
	for i := range v {
		if m.every > 0 && r.Intn(m.every) == 0 {
			v[i] = m.pool[r.Intn(len(m.pool))]
		} else {
			v[i] = r.Float32()*4 - 2
		}
	}
	return v
}

// sameBits fails t unless got and want agree bit for bit (up to NaN
// payloads when m is not exact).
func sameBits(t *testing.T, m mix, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !m.exact && g != g && w != w {
			continue
		}
		if math.Float32bits(g) != math.Float32bits(w) {
			t.Fatalf("%s (%v): element %d = %v (%#08x), scalar gives %v (%#08x)", what, m, i,
				g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// both runs f once through the scalar kernels and once through the AVX
// kernels, each on its own copy of the buffers clone makes.
func both(t *testing.T, clone func() [][]float32, f func(bufs [][]float32)) (scalar, vector [][]float32) {
	t.Helper()
	if !hasAVX() {
		t.Skip("no AVX kernels in this build or on this CPU")
	}
	scalar, vector = clone(), clone()
	restore := ScalarForTest()
	f(scalar)
	restore()
	f(vector)
	return scalar, vector
}

func copies(src ...[]float32) func() [][]float32 {
	return func() [][]float32 {
		out := make([][]float32, len(src))
		for i, s := range src {
			out[i] = append([]float32(nil), s...)
		}
		return out
	}
}

func TestTile4x8MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range mixes {
		for k := 0; k <= 67; k++ {
			for _, accum := range []bool{false, true} {
				aOff, cOff, bOff := r.Intn(8), r.Intn(8), r.Intn(8)
				lda := k + r.Intn(3)
				ldc := 8 + r.Intn(5)
				a := randVec(r, aOff+3*lda+k+r.Intn(4), m)
				bp := randVec(r, bOff+8*k+r.Intn(9), m)
				c := randVec(r, cOff+3*ldc+8+r.Intn(4), m)
				s, v := both(t, copies(c), func(b [][]float32) {
					Tile4x8(b[0][cOff:], ldc, a[aOff:], lda, bp[bOff:], k, accum)
				})
				sameBits(t, m, fmt.Sprintf("Tile4x8 k=%d accum=%v", k, accum), v[0], s[0])
			}
		}
	}
}

func TestRow1x8MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, m := range mixes {
		for k := 0; k <= 67; k++ {
			for _, accum := range []bool{false, true} {
				aOff, cOff, bOff := r.Intn(8), r.Intn(8), r.Intn(8)
				a := randVec(r, aOff+k+r.Intn(3), m)
				bp := randVec(r, bOff+8*k+r.Intn(9), m)
				c := randVec(r, cOff+8+r.Intn(4), m)
				s, v := both(t, copies(c), func(b [][]float32) {
					Row1x8(b[0][cOff:], a[aOff:], bp[bOff:], k, accum)
				})
				sameBits(t, m, fmt.Sprintf("Row1x8 k=%d accum=%v", k, accum), v[0], s[0])
			}
		}
	}
}

func TestAxpyMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ws := append([]float32{1.5, -0.25}, specials...)
	for _, m := range mixes {
		for n := 0; n <= 83; n++ {
			for _, w := range ws {
				dOff, sOff := r.Intn(8), r.Intn(8)
				dst := randVec(r, dOff+n+r.Intn(4), m)
				src := randVec(r, sOff+n+r.Intn(4), m)
				s, v := both(t, copies(dst), func(b [][]float32) {
					Axpy(b[0][dOff:dOff+n], src[sOff:], w)
				})
				sameBits(t, m, fmt.Sprintf("Axpy n=%d w=%v", n, w), v[0], s[0])
			}
		}
	}
}

func TestTapColumnsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, m := range mixes {
		for n := 0; n <= 67; n++ {
			fx := 1 + r.Intn(7)
			nops := 1 + r.Intn(6)
			off := r.Intn(4)
			ops := make([]TapOp, nops)
			for i := range ops {
				sOff := r.Intn(8)
				ops[i] = TapOp{
					Src: randVec(r, sOff+off+n+fx-1+r.Intn(3), m)[sOff:],
					W0:  randVec(r, fx+r.Intn(2), m),
					W1:  randVec(r, fx+r.Intn(2), m),
				}
			}
			dOff := r.Intn(8)
			d0 := randVec(r, dOff+n+r.Intn(4), m)
			d1 := randVec(r, dOff+n+r.Intn(4), m)
			s, v := both(t, copies(d0), func(b [][]float32) {
				TapColumn1(b[0][dOff:], ops, fx, off, n)
			})
			sameBits(t, m, fmt.Sprintf("TapColumn1 n=%d fx=%d ops=%d", n, fx, nops), v[0], s[0])
			s, v = both(t, copies(d0, d1), func(b [][]float32) {
				TapColumn2(b[0][dOff:], b[1][dOff:], ops, fx, off, n)
			})
			sameBits(t, m, fmt.Sprintf("TapColumn2 row 0 n=%d fx=%d ops=%d", n, fx, nops), v[0], s[0])
			sameBits(t, m, fmt.Sprintf("TapColumn2 row 1 n=%d fx=%d ops=%d", n, fx, nops), v[1], s[1])
		}
	}
}

// TestShortOperandsPanic checks that every wrapper panics on a slice one
// element too short, or a negative count, on both the scalar and the AVX
// path.
func TestShortOperandsPanic(t *testing.T) {
	const k = 5
	buf := func(n int) []float32 { return make([]float32, n) }
	op := func(src, w0, w1 int) []TapOp { return []TapOp{{Src: buf(src), W0: buf(w0), W1: buf(w1)}} }
	cases := map[string]func(){
		"Tile4x8 a":       func() { Tile4x8(buf(3*9+8), 9, buf(3*k+k-1), k, buf(8*k), k, false) },
		"Tile4x8 bp":      func() { Tile4x8(buf(3*9+8), 9, buf(4*k), k, buf(8*k-1), k, true) },
		"Tile4x8 c":       func() { Tile4x8(buf(3*9+7), 9, buf(4*k), k, buf(8*k), k, false) },
		"Tile4x8 k<0":     func() { Tile4x8(buf(32), 8, buf(20), k, buf(8*k), -1, false) },
		"Tile4x8 lda<0":   func() { Tile4x8(buf(32), 8, buf(20), -1, buf(8*k), k, false) },
		"Tile4x8 ldc<0":   func() { Tile4x8(buf(32), -1, buf(20), k, buf(8*k), k, false) },
		"Row1x8 a":        func() { Row1x8(buf(8), buf(k-1), buf(8*k), k, false) },
		"Row1x8 bp":       func() { Row1x8(buf(8), buf(k), buf(8*k-1), k, true) },
		"Row1x8 c":        func() { Row1x8(buf(7), buf(k), buf(8*k), k, false) },
		"Axpy src":        func() { Axpy(buf(9), buf(8), 2) },
		"TapColumn1 d0":   func() { TapColumn1(buf(15), op(20, 3, 0), 3, 1, 16) },
		"TapColumn1 src":  func() { TapColumn1(buf(16), op(1+16+3-2, 3, 0), 3, 1, 16) },
		"TapColumn1 w0":   func() { TapColumn1(buf(16), op(20, 2, 0), 3, 1, 16) },
		"TapColumn1 off":  func() { TapColumn1(buf(16), op(20, 3, 0), 3, -1, 16) },
		"TapColumn2 d1":   func() { TapColumn2(buf(16), buf(15), op(20, 3, 3), 3, 1, 16) },
		"TapColumn2 src":  func() { TapColumn2(buf(16), buf(16), op(1+16+3-2, 3, 3), 3, 1, 16) },
		"TapColumn2 w1":   func() { TapColumn2(buf(16), buf(16), op(20, 3, 2), 3, 1, 16) },
		"TapColumn2 n<0":  func() { TapColumn2(buf(16), buf(16), op(20, 3, 3), 3, 1, -1) },
		"TapColumn2 fx<0": func() { TapColumn2(buf(16), buf(16), op(20, 3, 3), -1, 1, 16) },
	}
	for _, scalar := range []bool{true, false} {
		if !scalar && !hasAVX() {
			continue
		}
		for name, f := range cases {
			func() {
				if scalar {
					defer ScalarForTest()()
				}
				defer func() {
					if recover() == nil {
						t.Errorf("%s (scalar=%v): short operand did not panic", name, scalar)
					}
				}()
				f()
			}()
		}
	}
}

// TestExactLengthsAccepted is the counterpart of TestShortOperandsPanic:
// operands of exactly the required length run without a panic.
func TestExactLengthsAccepted(t *testing.T) {
	const k = 5
	buf := func(n int) []float32 { return make([]float32, n) }
	Tile4x8(buf(3*9+8), 9, buf(3*k+k), k, buf(8*k), k, true)
	Row1x8(buf(8), buf(k), buf(8*k), k, false)
	Axpy(buf(9), buf(9), 2)
	TapColumn1(buf(16), []TapOp{{Src: buf(1 + 16 + 3 - 1), W0: buf(3)}}, 3, 1, 16)
	TapColumn2(buf(16), buf(16), []TapOp{{Src: buf(1 + 16 + 3 - 1), W0: buf(3), W1: buf(3)}}, 3, 1, 16)
}

func TestTile4x8NoAllocs(t *testing.T) {
	a, bp := make([]float32, 4*64), make([]float32, 8*64)
	allocs := testing.AllocsPerRun(10, func() {
		var tile [32]float32
		Tile4x8(tile[:], 8, a, 64, bp, 64, false)
	})
	if allocs != 0 {
		t.Fatalf("Tile4x8 with a stack tile allocates %v times per call", allocs)
	}
}
