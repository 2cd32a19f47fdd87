package nn

import "math"

// Element-wise hot loops of the activation and bias passes, and the
// max-pool compare key. They run once per activation element per step, so
// they are kept free of bounds checks (gated by scripts/bce_check.sh) and
// of data-dependent branches: a ReLU or max-pool compare on activations is
// taken about half the time at random, and the mispredictions cost more
// than the work.
// Floats are handled through their IEEE-754 bits, which gives the exact
// ±0 and NaN behaviour of the compare-and-branch forms.

// posMask returns all ones when the float with bits b is > 0, else 0.
// Positive floats (+Inf included) are the bit patterns 1..0x7f800000, so
// b-1 < 0x7f800000 exactly when b encodes a value > 0; ±0, negatives and
// NaNs all fall outside. The unsigned compare is done by a 64-bit
// subtraction whose borrow fills the upper word.
func posMask(b uint32) uint32 {
	return uint32((uint64(b-1) - 0x7f800000) >> 32)
}

// reluForward computes out[j] = in[j] > 0 ? in[j] : +0. NaN and -0 give +0.
func reluForward(out, in []float32) {
	if len(out) != len(in) {
		panic("nn: reluForward length mismatch")
	}
	for j, v := range in {
		b := math.Float32bits(v)
		out[j] = math.Float32frombits(b & posMask(b))
	}
}

// reluBackward computes ei[j] = in[j] > 0 ? eo[j] : +0, gating the output
// gradient on the forwarded input.
func reluBackward(ei, eo, in []float32) {
	if len(ei) != len(in) || len(eo) != len(in) {
		panic("nn: reluBackward length mismatch")
	}
	for j, v := range in {
		ei[j] = math.Float32frombits(math.Float32bits(eo[j]) & posMask(math.Float32bits(v)))
	}
}

// addBias adds bias[f] to plane f of dst (len(bias) planes of plane
// elements each). A zero bias is skipped rather than added: x + 0 turns a
// -0 output into +0.
func addBias(dst, bias []float32, plane int) {
	for _, b := range bias {
		if plane < 0 || plane > len(dst) {
			return
		}
		p := dst[:plane]
		dst = dst[plane:]
		if b == 0 {
			continue
		}
		for j := range p {
			p[j] += b
		}
	}
}

// planeSums writes the sum of each of the len(sums) planes of src (in
// element order) to sums, and returns how many of their elements are ±0 —
// the bias gradient and the sparsity probe of one output-error gradient
// in a single pass.
func planeSums(sums, src []float32, plane int) (zeros int) {
	for f := range sums {
		if plane < 0 || plane > len(src) {
			return zeros
		}
		p := src[:plane]
		src = src[plane:]
		var s float32
		for _, v := range p {
			s += v
			zeros += isZero(v)
		}
		sums[f] = s
	}
	return zeros
}

// isZero returns 1 if v is ±0, else 0. Shifting out the sign leaves x == 0
// only for the zeros, and x | -x has its top bit set for every x != 0.
func isZero(v float32) int {
	x := math.Float32bits(v) << 1
	return int(((x | -x) >> 31) ^ 1)
}

// poolKey maps the bits of a max-pool candidate to an int32 whose signed
// order is the float order: |v| for v >= 0 and -|v| below, so -0 and +0
// tie. NaNs land outside ±Inf (a negative one below -Inf, a positive one
// above +Inf), where the caller must look for them.
func poolKey(b uint32) int32 {
	abs, s := int32(b&0x7fffffff), int32(b)>>31
	return (abs ^ s) - s
}
