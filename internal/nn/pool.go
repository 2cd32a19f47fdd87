package nn

import (
	"fmt"
	"math"

	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
)

// MaxPool is a max-pooling layer with a square window and stride. Its
// backward pass routes each output gradient to the argmax input position —
// another source of gradient sparsity (most input positions get zero).
type MaxPool struct {
	name         string
	inDims       []int
	size, stride int
	outH, outW   int
	workers      int
	argmax       [][]int32 // per batch slot: flat input index per output element
}

// NewMaxPool builds a max-pooling layer over [C][H][W] inputs.
func NewMaxPool(name string, inDims []int, size, stride, workers int) *MaxPool {
	if len(inDims) != 3 {
		panic(fmt.Sprintf("nn: MaxPool needs [C][H][W] input, got %v", inDims))
	}
	if size < 1 || stride < 1 {
		panic("nn: MaxPool size/stride must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	h, w := inDims[1], inDims[2]
	if size > h || size > w {
		panic(fmt.Sprintf("nn: MaxPool window %d exceeds input %dx%d", size, h, w))
	}
	return &MaxPool{
		name:    name,
		inDims:  append([]int(nil), inDims...),
		size:    size,
		stride:  stride,
		outH:    (h-size)/stride + 1,
		outW:    (w-size)/stride + 1,
		workers: workers,
	}
}

// Name implements Layer.
func (l *MaxPool) Name() string { return l.name }

// InDims implements Layer.
func (l *MaxPool) InDims() []int { return l.inDims }

// OutDims implements Layer.
func (l *MaxPool) OutDims() []int { return []int{l.inDims[0], l.outH, l.outW} }

func (l *MaxPool) ensureArgmax(n int) {
	outLen := l.inDims[0] * l.outH * l.outW
	for len(l.argmax) < n {
		l.argmax = append(l.argmax, make([]int32, outLen))
	}
}

// Forward implements Layer. Each output is the first element of its
// window, in row-major order, that is strictly greater than every element
// before it: a NaN wins only as the window's first element, and equal
// values (-0 and +0 included) keep the earliest. The compares run on
// integer keys (poolKey), so the running max is a conditional move, not a
// branch on the data; only a window holding a NaN takes a float-compare
// rescan.
func (l *MaxPool) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	l.ensureArgmax(len(ins))
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	size, stride := l.size, l.stride
	par.For(len(ins), l.workers, func(i int) {
		in, out, am := ins[i].Data, outs[i].Data, l.argmax[i]
		o := 0
		for ci := 0; ci < c; ci++ {
			base := ci * h * w
			for oy := 0; oy < l.outH; oy++ {
				for ox := 0; ox < l.outW; ox++ {
					best := windowArgmax(in, base+oy*stride*w+ox*stride, w, size)
					out[o] = in[best]
					am[o] = int32(best)
					o++
				}
			}
		}
	})
}

// windowArgmax returns the flat index of the max of the size×size window
// of in (row pitch w) whose first element is in[first].
func windowArgmax(in []float32, first, w, size int) int {
	if v := in[first]; v != v {
		return first // nothing is greater than a NaN running max
	}
	bestIdx, bestKey := first, poolKey(math.Float32bits(in[first]))
	end := first + size*w
	for r := first; r < end; r += w {
		for kx, v := range in[r : r+size] {
			if k := poolKey(math.Float32bits(v)); k > bestKey {
				bestKey, bestIdx = k, r+kx
			}
		}
	}
	if bestKey > 0x7f800000 {
		// A positive NaN outranked the numbers, which a float compare
		// never lets it do.
		return windowArgmaxFloat(in, first, w, size)
	}
	return bestIdx
}

// windowArgmaxFloat is windowArgmax as a float compare-and-branch scan:
// exact for NaNs, and only run on windows that hold one.
func windowArgmaxFloat(in []float32, first, w, size int) int {
	best, bestIdx := in[first], first
	for r := first; r < first+size*w; r += w {
		for kx, v := range in[r : r+size] {
			if v > best {
				best, bestIdx = v, r+kx
			}
		}
	}
	return bestIdx
}

// Backward implements Layer: scatter each output gradient to its argmax.
// A nil eis computes nothing.
func (l *MaxPool) Backward(eis, eos, _ []*tensor.Tensor) {
	if eis == nil {
		return
	}
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	par.For(len(eos), l.workers, func(i int) {
		ei, eo, am := eis[i], eos[i], l.argmax[i]
		ei.Zero()
		for o, v := range eo.Data {
			ei.Data[am[o]] += v
		}
	})
}

// ApplyGrads implements Layer (no parameters).
func (l *MaxPool) ApplyGrads(float32, int) {}

// EpochEnd implements Layer.
func (l *MaxPool) EpochEnd() {}
