package nn

import (
	"fmt"

	"spgcnn/internal/par"
	"spgcnn/internal/tensor"
)

// Pad adds a border of zeros around each spatial plane; its backward pass
// crops the border gradients away (the exact adjoint). Table 2's note that
// layer-0 input sizes reflect "image padding/cropping" is this layer: it
// lets networks written in the canonical geometry (e.g. AlexNet's padded
// 224→227-style inputs) be expressed with the library's padding-free
// convolutions.
type Pad struct {
	name    string
	inDims  []int
	py, px  int
	workers int
}

// NewPad builds a padding layer over [C][H][W] inputs adding py rows and
// px columns of zeros on each border.
func NewPad(name string, inDims []int, py, px, workers int) *Pad {
	if len(inDims) != 3 {
		panic(fmt.Sprintf("nn: Pad needs [C][H][W] input, got %v", inDims))
	}
	if py < 0 || px < 0 {
		panic("nn: negative padding")
	}
	if workers < 1 {
		workers = 1
	}
	return &Pad{name: name, inDims: append([]int(nil), inDims...), py: py, px: px, workers: workers}
}

// Name implements Layer.
func (l *Pad) Name() string { return l.name }

// InDims implements Layer.
func (l *Pad) InDims() []int { return l.inDims }

// OutDims implements Layer.
func (l *Pad) OutDims() []int {
	return []int{l.inDims[0], l.inDims[1] + 2*l.py, l.inDims[2] + 2*l.px}
}

// Forward implements Layer.
func (l *Pad) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	par.For(len(ins), l.workers, func(i int) {
		in, out := ins[i], outs[i]
		out.Zero()
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				copy(out.Row3(ci, y+l.py)[l.px:l.px+w], in.Row3(ci, y))
			}
		}
	})
}

// Backward implements Layer: crop the interior gradient. A nil eis
// computes nothing.
func (l *Pad) Backward(eis, eos, _ []*tensor.Tensor) {
	if eis == nil {
		return
	}
	if len(eis) != len(eos) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	c, h, w := l.inDims[0], l.inDims[1], l.inDims[2]
	par.For(len(eos), l.workers, func(i int) {
		eo, ei := eos[i], eis[i]
		for ci := 0; ci < c; ci++ {
			for y := 0; y < h; y++ {
				copy(ei.Row3(ci, y), eo.Row3(ci, y+l.py)[l.px:l.px+w])
			}
		}
	})
}

// ApplyGrads implements Layer (no parameters).
func (l *Pad) ApplyGrads(float32, int) {}

// EpochEnd implements Layer.
func (l *Pad) EpochEnd() {}
