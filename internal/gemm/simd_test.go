package gemm

import (
	"fmt"
	"math"
	"testing"

	"spgcnn/internal/rng"
	"spgcnn/internal/simd"
)

// TestPackedVectorMatchesScalar runs every packed entry point once with the
// scalar kernels and once with the kernels this process selected (AVX where
// available), over row counts that are not a multiple of the 4-row tile,
// column counts that are not a multiple of the 8-wide panel, and K from 0
// up: the outputs must agree bit for bit.
func TestPackedVectorMatchesScalar(t *testing.T) {
	defer ForcePackedForTest()()
	r := rng.New(41)
	shapes := [][3]int{{1, 0, 1}, {3, 5, 7}, {4, 8, 8}, {5, 13, 9}, {7, 67, 17}, {9, 33, 24}, {13, 64, 31}}
	type entry struct {
		name string
		run  func(c, a, b *Matrix)
	}
	entries := []entry{
		{"PackedSerial", PackedSerial},
		{"ParallelAccum", func(c, a, b *Matrix) { ParallelAccum(c, a, b, 3) }},
		{"MulPacked", func(c, a, b *Matrix) {
			p := PackB(b, nil)
			MulPacked(c, a, p)
			p.Release()
		}},
		{"ParallelMulTransB", func(c, a, b *Matrix) { ParallelMulTransB(c, a, b.Transpose(), 2) }},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := randMatrix(r, m, k), randMatrix(r, k, n)
		c0 := randMatrix(r, m, n)
		for _, e := range entries {
			scalar, vector := c0.Clone(), c0.Clone()
			restore := simd.ScalarForTest()
			e.run(scalar, a, b)
			restore()
			e.run(vector, a, b)
			for i := range scalar.Data {
				if math.Float32bits(scalar.Data[i]) != math.Float32bits(vector.Data[i]) {
					t.Fatalf("%s %s: element %d = %v, scalar kernels give %v", e.name,
						fmt.Sprintf("%dx%dx%d", m, k, n), i, vector.Data[i], scalar.Data[i])
				}
			}
		}
	}
}
