// Package spkernel implements the paper's Sparse-Kernel (§4.2): the
// back-propagation kernels that exploit the moderate (50–95%) sparsity of
// output-activation errors to raise goodput.
//
// The ingredients match §4.2 one for one:
//
//   - Sparse data representation: the error gradient EO is stored in
//     CT-CSR (column-tiled CSR, Fig. 5a) with the spatial positions as rows
//     and the features as tiled columns.
//   - Data-layout transformation: weights are transformed to [ky][kx][f][c]
//     (c fastest — Eq. 13's W'), EO and I to HWC (f/c fastest), and the
//     results EI/dW are produced channel-contiguous and transformed back.
//   - Pointer shifting (Eq. 15): each non-zero EO[y′,x′,f] is multiplied
//     against the contiguous weight vector W′[ky][kx][f][·] and accumulated
//     in place into the output vector EI[y′·sy+ky, x′·sx+kx, ·] — a series
//     of small dense vector operations, with no unfolding and nothing done
//     for zero gradients (Fig. 6).
//
// The delta-weight computation (Eq. 4) follows the same structure with the
// input activations in place of the weights.
package spkernel

import (
	"fmt"
	"sync"

	"spgcnn/internal/conv"
	"spgcnn/internal/engine"
	"spgcnn/internal/exec"
	"spgcnn/internal/simd"
	"spgcnn/internal/sparse"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// Kernel is a generated sparse BP plan for one spec. Forward propagation
// is not this technique's job (the paper pairs Sparse-Kernel BP with
// GEMM-in-Parallel or Stencil-Kernel FP), so Forward delegates to a serial
// unfold+GEMM kernel for interface completeness.
//
// Layout-transform scratch comes from the execution context's arena per
// batch call; the CT-CSR skeleton (whose index arrays cannot live in the
// float arena) is recycled through a kernel-owned sync.Pool. One instance
// is safe for concurrent use through the batch entry points.
type Kernel struct {
	spec      conv.Spec
	tileWidth int

	// scratch pools CT-CSR skeletons whose Values/ColIdx/RowPtr arrays are
	// reused across steps via sparse.FromDenseCTInto.
	scratch sync.Pool

	fwd    *unfoldgemm.Kernel
	single engine.SingleOps
}

type ceoScratch struct {
	ceo sparse.CTCSR
}

// New generates a sparse kernel for s. tileWidth <= 0 selects the CT-CSR
// default tile width.
func New(s conv.Spec, tileWidth int) *Kernel {
	s.MustValidate()
	if tileWidth <= 0 {
		tileWidth = sparse.DefaultTileWidth
	}
	k := &Kernel{
		spec:      s,
		tileWidth: tileWidth,
		fwd:       unfoldgemm.New(s, 1),
	}
	k.scratch.New = func() any { return &ceoScratch{} }
	return k
}

// Name implements engine.Kernel.
func (k *Kernel) Name() string { return fmt.Sprintf("sparse(tile=%d)", k.tileWidth) }

// Spec implements engine.Kernel.
func (k *Kernel) Spec() conv.Spec { return k.spec }

// ForwardBatch delegates to serial unfold+GEMM (see type comment).
func (k *Kernel) ForwardBatch(c *exec.Ctx, outs, ins []*tensor.Tensor, w *tensor.Tensor) {
	k.fwd.ForwardBatch(c, outs, ins, w)
}

// buildEO transforms eo to feature-fastest layout in eoHWC and compresses
// it into the reusable CT-CSR: rows are the OutY·OutX spatial positions,
// columns the Nf features, tiled by tileWidth.
func (k *Kernel) buildEO(ceo *sparse.CTCSR, eoHWC, eo *tensor.Tensor) {
	tensor.CHWToHWCInto(eoHWC, eo)
	s := k.spec
	sparse.FromDenseCTInto(ceo, eoHWC.Data, s.OutY()*s.OutX(), s.Nf, k.tileWidth)
}

// BackwardInputBatch computes Eq. 3 by pointer shifting: for every stored
// non-zero of EO and every kernel coordinate, one dense axpy of length Nc
// lands directly at its shifted output position (Eq. 15). The weight
// transform is hoisted out of the per-sample loop.
func (k *Kernel) BackwardInputBatch(c *exec.Ctx, eis, eos []*tensor.Tensor, w *tensor.Tensor) {
	if len(eis) != len(eos) {
		panic("spkernel: BackwardInputBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, w)
	if len(eos) == 0 {
		return
	}
	sc := k.scratch.Get().(*ceoScratch)
	eoHWC := c.GetTensor(s.OutY(), s.OutX(), s.Nf)
	wKKFC := c.GetTensor(s.Fy, s.Fx, s.Nf, s.Nc)
	eiHWC := c.GetTensor(s.Ny, s.Nx, s.Nc)
	tensor.FCKKToKKFCInto(wKKFC, w)
	for i := range eos {
		conv.CheckInput(s, eis[i])
		conv.CheckOutput(s, eos[i])
		k.buildEO(&sc.ceo, eoHWC, eos[i])
		eiHWC.Zero()
		k.scatterEI(&sc.ceo, wKKFC, eiHWC)
		tensor.HWCToCHWInto(eis[i], eiHWC)
	}
	c.PutTensor(eiHWC)
	c.PutTensor(wKKFC)
	c.PutTensor(eoHWC)
	k.scratch.Put(sc)
}

// scatterEI performs the Eq. 15 pointer-shifting scatter of every stored
// non-zero into the channel-contiguous EI scratch. Weights must already be
// in KKFC layout and eiHWC zeroed.
func (k *Kernel) scatterEI(ceo *sparse.CTCSR, wKKFC, eiHWC *tensor.Tensor) {
	s := k.spec
	nc := s.Nc
	ox := s.OutX()
	wdat := wKKFC.Data
	edat := eiHWC.Data
	for t := range ceo.Tiles {
		ceo.VisitTile(t, func(row, f int, v float32) {
			yq, xq := row/ox, row%ox
			yBase := yq * s.Sy
			xBase := xq * s.Sx
			for ky := 0; ky < s.Fy; ky++ {
				iy := yBase + ky
				rowBase := (iy*s.Nx + xBase) * nc
				for kx := 0; kx < s.Fx; kx++ {
					src := wdat[((ky*s.Fx+kx)*s.Nf+f)*nc:][:nc]
					dst := edat[rowBase+kx*nc:][:nc]
					simd.Axpy(dst, src, v)
				}
			}
		})
	}
}

// BackwardWeightsBatch computes dw = Σ_i grad(eos[i], ins[i]) (Eq. 4) with
// the same non-zero-driven structure: each stored EO non-zero contributes
// one Nc-length axpy of the input vector at its shifted position into the
// (ky, kx, f) weight-gradient row. The KKFC accumulator is zeroed once and
// summed over the whole batch, so the batch reduction is free. dw is
// overwritten.
func (k *Kernel) BackwardWeightsBatch(c *exec.Ctx, dw *tensor.Tensor, eos, ins []*tensor.Tensor) {
	if len(eos) != len(ins) {
		panic("spkernel: BackwardWeightsBatch length mismatch")
	}
	s := k.spec
	conv.CheckWeights(s, dw)
	sc := k.scratch.Get().(*ceoScratch)
	eoHWC := c.GetTensor(s.OutY(), s.OutX(), s.Nf)
	inHWC := c.GetTensor(s.Ny, s.Nx, s.Nc)
	dwKK := c.GetTensor(s.Fy, s.Fx, s.Nf, s.Nc)
	dwKK.Zero()
	for i := range eos {
		conv.CheckOutput(s, eos[i])
		conv.CheckInput(s, ins[i])
		k.buildEO(&sc.ceo, eoHWC, eos[i])
		tensor.CHWToHWCInto(inHWC, ins[i])
		k.scatterDW(&sc.ceo, inHWC, dwKK)
	}
	tensor.KKFCToFCKKInto(dw, dwKK)
	c.PutTensor(dwKK)
	c.PutTensor(inHWC)
	c.PutTensor(eoHWC)
	k.scratch.Put(sc)
}

// scatterDW accumulates every stored non-zero's input-vector contribution
// into the KKFC-layout weight-gradient scratch (Eq. 4, non-zero-driven).
// Inputs must already be in HWC layout; dwKK accumulates across calls.
func (k *Kernel) scatterDW(ceo *sparse.CTCSR, inHWC, dwKK *tensor.Tensor) {
	s := k.spec
	nc := s.Nc
	ox := s.OutX()
	idat := inHWC.Data
	ddat := dwKK.Data
	for t := range ceo.Tiles {
		ceo.VisitTile(t, func(row, f int, v float32) {
			yq, xq := row/ox, row%ox
			yBase := yq * s.Sy
			xBase := xq * s.Sx
			for ky := 0; ky < s.Fy; ky++ {
				iy := yBase + ky
				rowBase := (iy*s.Nx + xBase) * nc
				for kx := 0; kx < s.Fx; kx++ {
					src := idat[rowBase+kx*nc:][:nc]
					dst := ddat[((ky*s.Fx+kx)*s.Nf+f)*nc:][:nc]
					simd.Axpy(dst, src, v)
				}
			}
		})
	}
}

// Forward implements engine.SingleKernel by delegating to the serial
// unfold+GEMM kernel directly.
func (k *Kernel) Forward(out, in, w *tensor.Tensor) { k.fwd.Forward(out, in, w) }

// BackwardInput implements engine.SingleKernel.
func (k *Kernel) BackwardInput(ei, eo, w *tensor.Tensor) { k.single.BackwardInput(k, ei, eo, w) }

// BackwardWeights implements engine.SingleKernel.
func (k *Kernel) BackwardWeights(dw, eo, in *tensor.Tensor) {
	k.single.BackwardWeights(k, dw, eo, in)
}

// NonZeroFlops returns the useful (non-zero) flop count of one BP pass of
// spec s when EO has nnz stored non-zeros: 2 flops per (non-zero, tap,
// channel) triple — the numerator of the paper's goodput (Eq. 9).
func NonZeroFlops(s conv.Spec, nnz int) int64 {
	return 2 * int64(nnz) * int64(s.Fy) * int64(s.Fx) * int64(s.Nc)
}

// Generator returns the engine.Generator for the sparse technique with the
// default CT-CSR tile width.
func Generator() engine.Generator {
	return engine.Generator{
		Name: "sparse",
		New:  func(s conv.Spec) engine.Kernel { return New(s, 0) },
		// The CT-CSR pointer-shifting loop nests are generated for plain
		// geometry (no padding/dilation/groups); decline generalized specs
		// so the planner prunes this candidate instead of crashing.
		Supports: engine.PlainOnly,
	}
}
