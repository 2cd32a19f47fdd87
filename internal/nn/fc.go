package nn

import (
	"fmt"
	"math"
	"time"

	"spgcnn/internal/exec"
	"spgcnn/internal/par"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// FC is a fully-connected layer y = W·x + b over flattened inputs (the
// classifier head of every benchmark network). The batch is processed with
// GEMM-in-Parallel scheduling: one image per worker; per-worker gradient
// accumulators come from the execution context's arena.
type FC struct {
	name   string
	inDims []int
	inLen  int
	outLen int
	ctx    *exec.Ctx

	W, B   *tensor.Tensor // W: [out][in], B: [out]
	dW, dB *tensor.Tensor
	opt    sgdState // optimizer config (momentum.go)
	// accs holds Backward's per-worker dW, dB partials (arena tensors),
	// kept to reuse the slice across calls.
	accs []*tensor.Tensor

	spanFP, spanBP string // probe span names (same scheme as Conv)
}

// NewFCCtx builds a fully-connected layer mapping prod(inDims) -> out,
// scheduling over the given execution context.
func NewFCCtx(name string, inDims []int, out int, c *exec.Ctx, r *rng.RNG) *FC {
	if out < 1 {
		panic("nn: FC output size must be positive")
	}
	if c == nil {
		c = exec.New(1)
	}
	inLen := prod(inDims)
	l := &FC{
		name:   name,
		inDims: append([]int(nil), inDims...),
		inLen:  inLen,
		outLen: out,
		ctx:    c,
		W:      tensor.New(out, inLen),
		B:      tensor.New(out),
		dW:     tensor.New(out, inLen),
		dB:     tensor.New(out),
	}
	l.spanFP = "layer/" + name + "/fp/gemm-in-parallel"
	l.spanBP = "layer/" + name + "/bp/gemm-in-parallel"
	l.W.FillNormal(r, 0, float32(math.Sqrt(2/float64(inLen))))
	return l
}

// NewFC builds a fully-connected layer with a private context of the given
// worker count.
func NewFC(name string, inDims []int, out, workers int, r *rng.RNG) *FC {
	return NewFCCtx(name, inDims, out, exec.New(workers), r)
}

// Name implements Layer.
func (l *FC) Name() string { return l.name }

// InDims implements Layer.
func (l *FC) InDims() []int { return l.inDims }

// OutDims implements Layer.
func (l *FC) OutDims() []int { return []int{l.outLen} }

// Forward implements Layer.
func (l *FC) Forward(outs, ins []*tensor.Tensor) {
	if len(outs) != len(ins) {
		panic(fmt.Sprintf("nn: %s Forward batch mismatch", l.name))
	}
	start := time.Now()
	par.For(len(ins), l.ctx.Workers(), func(i int) {
		x := ins[i].Data
		y := outs[i].Data
		for o := 0; o < l.outLen; o++ {
			row := l.W.Data[o*l.inLen : (o+1)*l.inLen]
			var s float32
			for j, v := range row {
				s += v * x[j]
			}
			y[o] = s + l.B.Data[o]
		}
	})
	l.ctx.Probe().Observe(l.spanFP, time.Since(start).Seconds())
}

// Backward implements Layer: ei = Wᵀ·eo, dW += eo⊗x, dB += eo. A nil eis
// skips ei. Each worker sums its contiguous chunk of the batch into a
// private accumulator, and the accumulators are added to dW and dB in
// worker order, so the gradient bits do not depend on which worker
// finishes first.
func (l *FC) Backward(eis, eos, ins []*tensor.Tensor) {
	if (eis != nil && len(eis) != len(eos)) || len(eos) != len(ins) {
		panic(fmt.Sprintf("nn: %s Backward batch mismatch", l.name))
	}
	start := time.Now()
	used := min(l.ctx.Workers(), len(eos))
	if len(l.accs) < 2*used {
		l.accs = make([]*tensor.Tensor, 2*used)
	}
	accs := l.accs[:2*used]
	par.ForWorkers(len(eos), used, func(w, lo, hi int) {
		dW, dB := l.ctx.GetTensor(l.outLen, l.inLen), l.ctx.GetTensor(l.outLen)
		dW.Zero()
		dB.Zero()
		accs[2*w], accs[2*w+1] = dW, dB
		for i := lo; i < hi; i++ {
			var ei []float32
			if eis != nil {
				ei = eis[i].Data
			}
			fcBackwardImage(ei, dW.Data, dB.Data, eos[i].Data, ins[i].Data, l.W.Data)
		}
	})
	// Each element adds the partials in worker order, so splitting the
	// dW merge across the workers keeps its bits.
	dW := l.dW.Data
	par.ForChunked(len(dW), used, func(lo, hi int) {
		for w := 0; w < len(accs); w += 2 {
			for j, v := range accs[w].Data[lo:hi] {
				dW[lo+j] += v
			}
		}
	})
	for w := 0; w < len(accs); w += 2 {
		l.dB.AddScaled(accs[w+1], 1)
		l.ctx.PutTensor(accs[w+1])
		l.ctx.PutTensor(accs[w])
	}
	l.ctx.Probe().Observe(l.spanBP, time.Since(start).Seconds())
}

// fcBackwardImage accumulates one image's dW += eo⊗x and dB += eo into
// dw and db and, unless ei is nil, computes ei = Wᵀ·eo.
func fcBackwardImage(ei, dw, db, eo, x, w []float32) {
	inLen := len(x)
	for j := range ei {
		ei[j] = 0
	}
	for o, g := range eo {
		if g == 0 {
			continue
		}
		wrow := w[o*inLen : (o+1)*inLen]
		drow := dw[o*inLen : (o+1)*inLen]
		if ei != nil {
			for j, wv := range wrow {
				ei[j] += g * wv
				drow[j] += g * x[j]
			}
		} else {
			for j, xv := range x {
				drow[j] += g * xv
			}
		}
		db[o] += g
	}
}

// ApplyGrads implements Layer.
func (l *FC) ApplyGrads(lr float32, batch int) {
	l.opt.step(l.W, l.dW, lr, batch)
	l.opt.step(l.B, l.dB, lr, batch)
}

// EpochEnd implements Layer.
func (l *FC) EpochEnd() {}
