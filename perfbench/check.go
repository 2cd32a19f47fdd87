package main

import (
	"fmt"
	"math"
	"time"

	"spgcnn/internal/core"
	"spgcnn/internal/nn"
	"spgcnn/internal/tensor"
)

// tolerance is the mixed absolute/relative bound (tensor.AlmostEqual) a
// deployed engine must meet against the reference convolution; engines
// accumulate in different orders, as the repository's own tests allow.
const tolerance = 1e-3

// convCapture holds one conv layer's tensors from the checked batch.
type convCapture struct {
	conv           *nn.Conv
	ins, eos       []*tensor.Tensor
	outs, eis      []*tensor.Tensor
	w              *tensor.Tensor
	sparsity       float64 // mean output-error sparsity of the batch
	fpExec, bpExec *core.Exec
}

// checkBatch runs one batch forward and backward through the network's
// layers exactly as nn.Network does, but on benchmark-owned tensors, and
// checks every conv layer's deployed FP, BP-EI and BP-dW result against
// core.ReferenceStrategy on the same tensors. It returns the captures (for
// the traced engine replay) and one message per mismatch. Parameter
// gradients the backward pass accumulates are left in the layers, so call
// it after training.
func checkBatch(layers []nn.Layer, ins []*tensor.Tensor, labels []int) ([]*convCapture, []string) {
	batch := len(ins)
	acts := make([][]*tensor.Tensor, len(layers))
	cur := ins
	for l, layer := range layers {
		in := reshaped(cur, layer.InDims())
		acts[l] = newBatch(batch, layer.OutDims())
		layer.Forward(acts[l], in)
		cur = acts[l]
	}
	var loss nn.SoftmaxXent
	dl := newBatch(batch, layers[len(layers)-1].OutDims())
	var problems []string
	for i := range cur {
		if v, _ := loss.Loss(cur[i], labels[i], dl[i]); math.IsNaN(v) || math.IsInf(v, 0) {
			problems = append(problems, fmt.Sprintf("check batch: loss of image %d is %v", i, v))
		}
	}
	var caps []*convCapture
	cur = dl
	for l := len(layers) - 1; l >= 0; l-- {
		layer := layers[l]
		layerIns := ins
		if l > 0 {
			layerIns = acts[l-1]
		}
		layerIns = reshaped(layerIns, layer.InDims())
		eos := reshaped(cur, layer.OutDims())
		eis := newBatch(batch, layer.InDims())
		var c *convCapture
		if base := baseConv(layer); base != nil {
			// The copy is versioned like the layer's own weights: engines
			// that cache weight artifacts per version rebuild untracked
			// (version 0) weights in every worker, racing each other.
			w := base.W.Clone()
			w.Bump()
			c = &convCapture{conv: base, ins: clones(layerIns), outs: clones(acts[l]), eos: clones(eos), w: w}
			caps = append(caps, c)
		}
		layer.Backward(eis, eos, layerIns)
		if c != nil {
			c.eis = clones(eis)
		}
		cur = eis
	}
	for _, c := range caps {
		problems = append(problems, c.verify()...)
	}
	return caps, problems
}

// verify compares the layer's own FP and BP-EI outputs, and the deployed
// BP exec's weight gradient, with the reference engine.
func (c *convCapture) verify() []string {
	spec := c.conv.Spec()
	name := c.conv.Name()
	fp, bp, ok := c.conv.Selections()
	if !ok || fp.Chosen == nil || bp.Chosen == nil {
		return []string{name + ": no deployed FP/BP strategy to check"}
	}
	c.fpExec, c.bpExec = fp.Chosen, bp.Chosen
	ref := core.NewExec(core.ReferenceStrategy(), spec, 1)
	var problems []string
	batch := len(c.ins)

	want := newBatch(batch, c.conv.OutDims())
	ref.Forward(want, c.ins, c.w)
	plane := spec.OutY() * spec.OutX()
	for _, t := range want {
		for f, b := range c.conv.B.Data {
			for j := f * plane; j < (f+1)*plane; j++ {
				t.Data[j] += b
			}
		}
	}
	if i := firstMismatch(c.outs, want); i >= 0 {
		problems = append(problems, fmt.Sprintf("%s: FP (%s) image %d differs from the reference",
			name, fp.Chosen.Strategy().Name, i))
	}

	wantEI := newBatch(batch, c.conv.InDims())
	ref.BackwardInput(wantEI, c.eos, c.w)
	if i := firstMismatch(c.eis, wantEI); i >= 0 {
		problems = append(problems, fmt.Sprintf("%s: BP-EI (%s) image %d differs from the reference",
			name, bp.Chosen.Strategy().Name, i))
	}

	gotDW := tensor.New(spec.WeightDims()...)
	wantDW := tensor.New(spec.WeightDims()...)
	c.bpExec.BackwardWeights(gotDW, c.eos, c.ins)
	ref.BackwardWeights(wantDW, c.eos, c.ins)
	if !tensor.AlmostEqual(gotDW, wantDW, tolerance) {
		problems = append(problems, fmt.Sprintf("%s: BP-dW (%s) differs from the reference",
			name, bp.Chosen.Strategy().Name))
	}
	for _, eo := range c.eos {
		c.sparsity += eo.Sparsity()
	}
	c.sparsity /= float64(batch)
	return problems
}

// replay times the deployed execs on the captured tensors (median of reps
// calls per phase) and fills the engine.<conv>.* rows. Eq. 9 goodput
// counts the BP flops the batch's gradient sparsity leaves useful.
func (c *convCapture) replay(o *outcome, reps int) {
	if c.fpExec == nil || c.bpExec == nil {
		return
	}
	spec := c.conv.Spec()
	batch := len(c.ins)
	outs := newBatch(batch, c.conv.OutDims())
	eis := newBatch(batch, c.conv.InDims())
	dw := tensor.New(spec.WeightDims()...)
	timeIt := func(fn func()) float64 {
		var xs []float64
		for r := 0; r < reps; r++ {
			start := time.Now()
			fn()
			xs = append(xs, ms(time.Since(start)))
		}
		return median(xs)
	}
	fpMs := timeIt(func() { c.fpExec.Forward(outs, c.ins, c.w) })
	eiMs := timeIt(func() { c.bpExec.BackwardInput(eis, c.eos, c.w) })
	dwMs := timeIt(func() { c.bpExec.BackwardWeights(dw, c.eos, c.ins) })
	p := "engine." + c.conv.Name()
	o.values[p+".fp_ms"] = fpMs
	o.values[p+".bp_ei_ms"] = eiMs
	o.values[p+".bp_dw_ms"] = dwMs
	o.values[p+".fp_gflops"] = ratio(float64(spec.FlopsFP()*int64(batch))/1e6, fpMs)
	bpUseful := float64((spec.FlopsBPInput()+spec.FlopsBPWeights())*int64(batch)) * (1 - c.sparsity)
	o.values[p+".bp_goodput_gflops"] = ratio(bpUseful/1e6, eiMs+dwMs)
}

// firstMismatch returns the first image whose tensors differ beyond
// tolerance, or -1.
func firstMismatch(got, want []*tensor.Tensor) int {
	for i := range want {
		if !tensor.AlmostEqual(got[i], want[i], tolerance) {
			return i
		}
	}
	return -1
}

func newBatch(n int, dims []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = tensor.New(dims...)
	}
	return out
}

func clones(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

// reshaped views ts with dims, as nn.Network does between layers that
// flatten (pool -> fc).
func reshaped(ts []*tensor.Tensor, dims []int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Reshape(dims...)
	}
	return out
}
