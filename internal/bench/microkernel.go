package bench

import (
	"fmt"

	"spgcnn/internal/conv"
	"spgcnn/internal/exec"
	"spgcnn/internal/gemm"
	"spgcnn/internal/rng"
	"spgcnn/internal/simd"
	"spgcnn/internal/tensor"
	"spgcnn/internal/unfoldgemm"
)

// RunMicrokernel measures the prepacked-operand micro-kernel layer
// (DESIGN.md §9) on this host:
//
//   - raw SGEMM throughput of the interleaved-panel kernel against the
//     blocked baseline path, on square and training-shaped operands, with
//     the packed tile's scalar Go version beside the one this process
//     runs (the 8-lane AVX kernel where the CPU has AVX);
//   - what reusing one packed weight plan across calls saves relative to
//     packing on every call (the batch-amortization the packed engine
//     exploits across a training batch);
//   - the end effect on a convolution layer: the prepacked engine versus
//     the plain serial unfold+GEMM kernel over one training batch, with
//     the pack-cache hit/miss counts observed through the probe.
//
// All numbers are wall-clock on this host (KindMeasured): baseline checks
// are structural only.
func RunMicrokernel(o Options) []Table {
	reps := 3
	dims := []struct{ m, k, n int }{
		{128, 128, 128},
		{256, 256, 256},
		{64, 576, 1024}, // a CIFAR-shaped training GEMM (pixels x taps x features)
	}
	batch := 8
	if o.full() {
		reps = 5
		dims = append(dims, struct{ m, k, n int }{512, 512, 512})
	}
	r := rng.New(0x9C4B)

	raw := Table{
		Title: "GEMM throughput: interleaved-panel micro-kernel vs blocked baseline (GFlops, single thread)",
		Note: "baseline = cache-blocked 4x4 register tiling (the pre-packed-engine Serial path); " +
			"packed = pack B into k-interleaved 8-wide panels, then the 4x8 tile (simd.Tile4x8); " +
			"scalar = its Go kernel, packed = the kernel this process runs (" + kernelKind() + ")",
		Columns: []string{"Shape", "Blocked", "Packed scalar", "Packed", "Vector gain", "Speedup"},
	}
	reuse := Table{
		Title: "Pack amortization: packing B on every call vs reusing one packed plan",
		Note: "reuse is what the packed convolution engine gets across a training batch " +
			"while the weights are unchanged",
		Columns: []string{"Shape", "Pack-every-call GFlops", "Reused-plan GFlops", "Reuse speedup"},
	}
	for _, d := range dims {
		a := randMatrix(r, d.m, d.k)
		b := randMatrix(r, d.k, d.n)
		c := gemm.NewMatrix(d.m, d.n)
		gf := float64(gemm.Flops(d.m, d.n, d.k)) / 1e9

		restore := gemm.DisablePackedForTest()
		tBlocked := minTime(reps, func() { gemm.Serial(c, a, b) })
		restore()
		restore = simd.ScalarForTest()
		tScalar := minTime(reps, func() { gemm.PackedSerial(c, a, b) })
		restore()
		tPacked := minTime(reps, func() { gemm.PackedSerial(c, a, b) })
		raw.AddRow(shapeLabel(d.m, d.k, d.n), gf/tBlocked, gf/tScalar, gf/tPacked,
			tScalar/tPacked, tBlocked/tPacked)

		plan := gemm.PackB(b, nil)
		tReuse := minTime(reps, func() { gemm.MulPacked(c, a, plan) })
		plan.Release()
		reuse.AddRow(shapeLabel(d.m, d.k, d.n), gf/tPacked, gf/tReuse, tPacked/tReuse)
	}

	engine := Table{
		Title: fmt.Sprintf("Convolution FP over a %d-image batch: prepacked engine vs serial unfold+GEMM", batch),
		Note: "pack hits/misses are probe counts for the whole timed run; one miss per weight " +
			"version is the steady state",
		Columns: []string{"ID", "Spec (scaled)", "Unfold ms", "Packed ms", "Speedup", "Pack hits", "Pack misses"},
	}
	var maxFlops int64 = 30e6
	if o.full() {
		maxFlops = 500e6
	}
	for _, row := range Table1() {
		s := ScaledForHost(row.Spec, maxFlops)
		w := conv.RandWeights(r, s)
		w.Bump() // trainer-style version tracking enables the pack cache
		ins := make([]*tensor.Tensor, batch)
		outs := make([]*tensor.Tensor, batch)
		for i := range ins {
			ins[i] = conv.RandInput(r, s)
			outs[i] = conv.NewOutput(s)
		}
		base := unfoldgemm.New(s, 1)
		packed := unfoldgemm.NewPacked(s, 1)
		ctx := exec.New(1)

		tBase := minTime(reps, func() { base.ForwardBatch(ctx, outs, ins, w) })
		tPacked := minTime(reps, func() { packed.ForwardBatch(ctx, outs, ins, w) })
		hit, _ := ctx.Probe().SpanStats("pack/" + s.String() + "/hit")
		miss, _ := ctx.Probe().SpanStats("pack/" + s.String() + "/miss")
		engine.AddRow(row.ID, s.String(), tBase*1e3, tPacked*1e3, tBase/tPacked,
			hit.Calls, miss.Calls)
	}
	return []Table{raw, reuse, engine}
}

// kernelKind names the micro-kernels this process runs.
func kernelKind() string {
	if simd.Enabled() {
		return "8-lane AVX"
	}
	return "scalar Go"
}

func shapeLabel(m, k, n int) string { return fmt.Sprintf("%dx%dx%d", m, k, n) }

func randMatrix(r *rng.RNG, rows, cols int) *gemm.Matrix {
	m := gemm.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Float32()*2 - 1
	}
	return m
}
