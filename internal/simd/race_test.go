//go:build race

package simd

import "testing"

// The race detector cannot see memory accesses made by assembly, so race
// builds must run the scalar kernels.
func TestRaceBuildUsesScalar(t *testing.T) {
	if Enabled() || hasAVX() {
		t.Fatal("race build selected the AVX kernels; the detector would miss their accesses")
	}
}
