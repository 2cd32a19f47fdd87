package nn

import (
	"fmt"

	"spgcnn/internal/par"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// Additional layers beyond the paper's core networks: average pooling (a
// common alternative to max pooling in the CIFAR-family models) and
// dropout (the regularizer of the paper's CIFAR-10 reference [50]).
// Dropout's backward mask is another — tunable — source of the gradient
// sparsity the Sparse-Kernel feeds on.

// AvgPool averages square windows. Backward distributes each output
// gradient uniformly over its window.
type AvgPool struct {
	name         string
	inDims       []int
	size, stride int
	outH, outW   int
	workers      int
}

// NewAvgPool builds an average-pooling layer over [C][H][W] inputs.
func NewAvgPool(name string, inDims []int, size, stride, workers int) *AvgPool {
	if len(inDims) != 3 {
		panic(fmt.Sprintf("nn: AvgPool needs [C][H][W] input, got %v", inDims))
	}
	if size < 1 || stride < 1 {
		panic("nn: AvgPool size/stride must be positive")
	}
	if workers < 1 {
		workers = 1
	}
	h, w := inDims[1], inDims[2]
	if size > h || size > w {
		panic(fmt.Sprintf("nn: AvgPool window %d exceeds input %dx%d", size, h, w))
	}
	return &AvgPool{
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
func (l *AvgPool) Name() string { return l.name }

// InDims implements Layer.
func (l *AvgPool) InDims() []int { return l.inDims }

// OutDims implements Layer.
func (l *AvgPool) OutDims() []int { return []int{l.inDims[0], l.outH, l.outW} }

// Forward implements Layer.
func (l *AvgPool) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	inv := 1 / float32(l.size*l.size)
	par.For(len(ins), l.workers, func(i int) {
		in, out := ins[i], outs[i]
		o := 0
		for ci := 0; ci < c; ci++ {
			base := ci * h * w
			for oy := 0; oy < l.outH; oy++ {
				for ox := 0; ox < l.outW; ox++ {
					var sum float32
					for ky := 0; ky < l.size; ky++ {
						rowBase := base + (oy*l.stride+ky)*w + ox*l.stride
						for kx := 0; kx < l.size; kx++ {
							sum += in.Data[rowBase+kx]
						}
					}
					out.Data[o] = sum * inv
					o++
				}
			}
		}
	})
}

// Backward implements Layer. A nil eis computes nothing.
func (l *AvgPool) Backward(eis, eos, _ []*tensor.Tensor) {
	if eis == nil {
		return
	}
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	inv := 1 / float32(l.size*l.size)
	par.For(len(eos), l.workers, func(i int) {
		ei, eo := eis[i], eos[i]
		ei.Zero()
		o := 0
		for ci := 0; ci < c; ci++ {
			base := ci * h * w
			for oy := 0; oy < l.outH; oy++ {
				for ox := 0; ox < l.outW; ox++ {
					g := eo.Data[o] * inv
					o++
					if g == 0 {
						continue
					}
					for ky := 0; ky < l.size; ky++ {
						rowBase := base + (oy*l.stride+ky)*w + ox*l.stride
						for kx := 0; kx < l.size; kx++ {
							ei.Data[rowBase+kx] += g
						}
					}
				}
			}
		}
	})
}

// ApplyGrads implements Layer (no parameters).
func (l *AvgPool) ApplyGrads(float32, int) {}

// EpochEnd implements Layer.
func (l *AvgPool) EpochEnd() {}

// Dropout zeroes each activation with probability Rate during training,
// scaling survivors by 1/(1−Rate) (inverted dropout, so inference needs no
// rescaling). SetTraining(false) makes it an identity.
type Dropout struct {
	name     string
	dims     []int
	rate     float32
	workers  int
	training bool
	r        *rng.RNG
	masks    [][]bool
}

// NewDropout builds a dropout layer. rate must be in [0, 1).
func NewDropout(name string, dims []int, rate float64, workers int, r *rng.RNG) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0, 1)", rate))
	}
	if workers < 1 {
		workers = 1
	}
	return &Dropout{
		name:     name,
		dims:     append([]int(nil), dims...),
		rate:     float32(rate),
		workers:  workers,
		training: true,
		r:        r,
	}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// InDims implements Layer.
func (l *Dropout) InDims() []int { return l.dims }

// OutDims implements Layer.
func (l *Dropout) OutDims() []int { return l.dims }

// SetTraining toggles between training (mask + scale) and inference
// (identity) behaviour.
func (l *Dropout) SetTraining(training bool) { l.training = training }

// Forward implements Layer.
func (l *Dropout) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	if !l.training || l.rate == 0 {
		for i := range ins {
			copy(outs[i].Data, ins[i].Data)
		}
		return
	}
	for len(l.masks) < len(ins) {
		l.masks = append(l.masks, make([]bool, prod(l.dims)))
	}
	scale := 1 / (1 - l.rate)
	// Mask generation uses the layer's single RNG stream, so it stays
	// sequential; the masking itself is cheap enough that this is fine.
	for i := range ins {
		in, out, mask := ins[i], outs[i], l.masks[i]
		for j, v := range in.Data {
			if l.r.Float32() < l.rate {
				mask[j] = false
				out.Data[j] = 0
			} else {
				mask[j] = true
				out.Data[j] = v * scale
			}
		}
	}
}

// Backward implements Layer. A nil eis computes nothing.
func (l *Dropout) Backward(eis, eos, _ []*tensor.Tensor) {
	if eis == nil {
		return
	}
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	if !l.training || l.rate == 0 {
		for i := range eos {
			copy(eis[i].Data, eos[i].Data)
		}
		return
	}
	scale := 1 / (1 - l.rate)
	par.For(len(eos), l.workers, func(i int) {
		eo, ei, mask := eos[i], eis[i], l.masks[i]
		for j, v := range eo.Data {
			if mask[j] {
				ei.Data[j] = v * scale
			} else {
				ei.Data[j] = 0
			}
		}
	})
}

// ApplyGrads implements Layer (no parameters).
func (l *Dropout) ApplyGrads(float32, int) {}

// EpochEnd implements Layer.
func (l *Dropout) EpochEnd() {}
