// Package stencil implements the paper's Stencil-Kernel (§4.3): direct
// convolution, without unfolding, structured as a register-tiled stencil so
// each input load is reused for several neighbouring outputs — recovering
// the intrinsic AIT that unfolding destroys for small convolutions.
//
// The package mirrors the paper's two-part code generator:
//
//   - The basic block generator (ChoosePlan) picks a register tile
//     (rx, ry) that minimizes input loads per multiply-accumulate subject
//     to a register budget, exactly the geometric optimization §4.3
//     describes (it iterates over all feasible tiles — "commodity machines
//     have a relatively small number of vector registers").
//   - The schedule generator adds cache tiling along the output row (TileX)
//     so the accumulator block plus the input rows it consumes stay
//     L1-resident.
//
// Where the paper's generator emits AVX intrinsics (Fig. 7), this one
// dispatches to fixed kernels in internal/simd: on AVX hosts the tap
// columns are Go-assembly basic blocks that broadcast each weight
// (VBROADCASTSS) and multiply-add it into 8-lane ymm accumulators over
// contiguous input (VMULPS, VADDPS) — Fig. 7's wvec/ivec/ovec roles — with
// bit-identical scalar Go kernels as the fallback. The cost model below
// still plans 4-wide "vectors" of scalar registers (planVW); the AVX
// kernels run the chosen row tile 8 to 32 columns at a time.
package stencil

import (
	"fmt"

	"spgcnn/internal/conv"
)

// NumRegisters is the modeled register budget: 16 architectural FP
// registers. On the paper's AVX machine these are 8-float vector
// registers; the model counts them as in the scalar kernels, where each
// holds one float and the vector width comes from the 4-way unrolled
// inner loop — so a register tile of rx "vectors" × ry rows consumes
// 4·rx·ry scalar registers for accumulators, 4 for the streaming input
// values, and ry for the broadcast weights (the Fig. 7 register roles).
const NumRegisters = 16

// planVW is the modeled vector width: the unroll factor of the scalar tap
// kernels' inner loop (the AVX kernels are 8 lanes wide).
const planVW = 4

// tileFeasible reports whether an (rx, ry) tile fits the register budget.
func tileFeasible(rx, ry int) bool {
	return planVW*rx*ry+planVW+ry <= NumRegisters
}

// maxRY is the tallest register tile the specialized kernels implement.
const maxRY = 4

// Plan is the output of the basic-block + schedule generators for one
// convolution: the register tile, the cache tile, and the modeled cost
// that justified the choice.
type Plan struct {
	Spec conv.Spec
	// RX is the register-tile width in vector units; RY its height in
	// output rows. RX·RY accumulators stay live in registers.
	RX, RY int
	// TileX is the output-row cache tile width chosen by the schedule
	// generator.
	TileX int
	// LoadsPerMAC is the modeled input loads per multiply-accumulate for
	// the chosen tile — the quantity the generator minimized.
	LoadsPerMAC float64
	// StrideSplit reports whether the Eq. 21 input layout transform is
	// required (sx > 1).
	StrideSplit bool
}

// String summarizes the plan.
func (p Plan) String() string {
	return fmt.Sprintf("stencil{rx=%d,ry=%d,tileX=%d,loads/mac=%.3f,split=%v}",
		p.RX, p.RY, p.TileX, p.LoadsPerMAC, p.StrideSplit)
}

// loadsPerMAC models the input vector loads per multiply-accumulate of an
// rx × ry register tile for a kernel of size fx × fy (paper §4.3): the
// tile's outputs consume (ry + fy − 1) input rows of (rx + ceil((fx−1)/vw))
// vectors each, while performing rx·ry·fx·fy vector MACs.
func loadsPerMAC(rx, ry, fx, fy, vw int) float64 {
	if vw < 1 {
		vw = 1
	}
	loads := float64(ry+fy-1) * float64(rx+(fx-1+vw-1)/vw)
	macs := float64(rx*ry) * float64(fx) * float64(fy)
	return loads / macs
}

// ChoosePlan runs the basic-block generator: iterate over every register
// tile satisfying the register budget (tileFeasible) and pick the one
// minimizing loads per MAC; ties break toward the smaller tile. The
// schedule generator then clamps the cache tile to the output width.
// This is the "geometric optimization problem" of §4.3, solved exactly by
// enumeration because commodity machines have few registers.
func ChoosePlan(s conv.Spec) Plan {
	s.MustValidate()
	best := Plan{Spec: s, RX: 1, RY: 1, LoadsPerMAC: loadsPerMAC(1, 1, s.Fx, s.Fy, planVW)}
	for ry := 1; ry <= maxRY; ry++ {
		for rx := 1; tileFeasible(rx, ry); rx++ {
			l := loadsPerMAC(rx, ry, s.Fx, s.Fy, planVW)
			if l < best.LoadsPerMAC-1e-12 {
				best.RX, best.RY, best.LoadsPerMAC = rx, ry, l
			}
		}
	}
	// Tiles taller than the output are wasted.
	if oy := s.OutY(); best.RY > oy {
		best.RY = oy
		best.LoadsPerMAC = loadsPerMAC(best.RX, best.RY, s.Fx, s.Fy, planVW)
	}
	best.TileX = chooseTileX(s)
	best.StrideSplit = s.Sx > 1
	return best
}

// chooseTileX picks the output-row tile so that the accumulator block
// (maxRY rows), the input rows feeding it, and a weight row together stay
// within half of a 32 KiB L1 cache.
func chooseTileX(s conv.Spec) int {
	const l1Floats = 32 * 1024 / 4 / 2
	ox := s.OutX()
	// Per output column: maxRY accumulators + (maxRY + Fy - 1) input
	// positions (times the stride for the raw row footprint).
	perCol := maxRY + (maxRY+s.Fy-1)*s.Sx
	tile := l1Floats / perCol
	if tile < 16 {
		tile = 16
	}
	if tile > ox {
		tile = ox
	}
	return tile
}
