package spgcnn_test

// One testing.B benchmark per paper table/figure, each driving the same
// runner `spg-bench -exp <id>` uses (quick scale). Analytical/modeled
// experiments cost microseconds per iteration; measured ones execute real
// kernels or training steps. Run with:
//
//	go test -bench=. -benchmem
//
// The rendered outputs (paper-vs-measured) are recorded in EXPERIMENTS.md;
// `go run ./cmd/spg-bench -all` regenerates them.

import (
	"testing"

	"spgcnn"
)

func benchExperiment(b *testing.B, id string) {
	e, err := spgcnn.LookupExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := spgcnn.ExperimentOptions{Scale: "quick"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables := e.Run(opts)
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

// Analytical experiments (the §3 characterization and the machine model).

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig3a(b *testing.B)  { benchExperiment(b, "fig3a") }
func BenchmarkFig4a(b *testing.B)  { benchExperiment(b, "fig4a") }
func BenchmarkFig4b(b *testing.B)  { benchExperiment(b, "fig4b") }
func BenchmarkFig4c(b *testing.B)  { benchExperiment(b, "fig4c") }
func BenchmarkFig4d(b *testing.B)  { benchExperiment(b, "fig4d") }
func BenchmarkFig4e(b *testing.B)  { benchExperiment(b, "fig4e") }
func BenchmarkFig4f(b *testing.B)  { benchExperiment(b, "fig4f") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// Measured experiments (real kernels / real training on this host).

func BenchmarkFig3b(b *testing.B)        { benchExperiment(b, "fig3b") }
func BenchmarkFig4Measured(b *testing.B) { benchExperiment(b, "fig4-measured") }
func BenchmarkFig8(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)         { benchExperiment(b, "fig9") }

// Ablations and extensions (see DESIGN.md §6).

func BenchmarkAblationSpatial(b *testing.B) { benchExperiment(b, "ablation-spatial") }
func BenchmarkAblationRTile(b *testing.B)   { benchExperiment(b, "ablation-rtile") }
func BenchmarkAblationCTCSR(b *testing.B)   { benchExperiment(b, "ablation-ctcsr") }
func BenchmarkAblationMachine(b *testing.B) { benchExperiment(b, "ablation-machine") }
func BenchmarkAblationFFT(b *testing.B)     { benchExperiment(b, "ablation-fft") }
func BenchmarkGoodputTrain(b *testing.B)    { benchExperiment(b, "goodput-train") }

// Per-technique kernel micro-benchmarks on the paper's CIFAR-10 layer 0
// geometry (Table 2: 36,64,3,5,1) — the head-to-head behind Fig. 8's
// CIFAR bars, with GFlops and goodput reported as custom metrics.

func cifarL0() (spec spgcnn.ConvSpec, in, w, out, ei, dw, eoDense, eoSparse *spgcnn.Tensor) {
	spec = spgcnn.Square(36, 64, 3, 5, 1)
	r := spgcnn.NewRNG(1)
	in = spgcnn.NewInput(spec)
	in.FillNormal(r, 0, 1)
	w = spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.1)
	out = spgcnn.NewOutput(spec)
	ei = spgcnn.NewInput(spec)
	dw = spgcnn.NewWeights(spec)
	eoDense = spgcnn.NewOutput(spec)
	eoDense.FillNormal(r, 0, 1)
	eoSparse = eoDense.Clone()
	eoSparse.Sparsify(r, 0.85)
	return
}

func BenchmarkKernelFPUnfoldGEMM(b *testing.B) {
	spec, in, w, out, _, _, _, _ := cifarL0()
	k := spgcnn.NewUnfoldGEMM(spec, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Forward(out, in, w)
	}
	b.ReportMetric(float64(spec.FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

func BenchmarkKernelFPStencil(b *testing.B) {
	spec, in, w, out, _, _, _, _ := cifarL0()
	k := spgcnn.NewStencil(spec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Forward(out, in, w)
	}
	b.ReportMetric(float64(spec.FlopsFP())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlops")
}

func BenchmarkKernelBPDense(b *testing.B) {
	spec, in, w, _, ei, dw, eoDense, _ := cifarL0()
	k := spgcnn.NewUnfoldGEMM(spec, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardInput(ei, eoDense, w)
		k.BackwardWeights(dw, eoDense, in)
	}
}

func BenchmarkKernelBPSparse85(b *testing.B) {
	spec, in, w, _, ei, dw, _, eoSparse := cifarL0()
	k := spgcnn.NewSparse(spec, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.BackwardInput(ei, eoSparse, w)
		k.BackwardWeights(dw, eoSparse, in)
	}
	useful := float64(2 * spgcnn.SparseNonZeroFlops(spec, eoSparse.NNZ()))
	b.ReportMetric(useful*float64(b.N)/b.Elapsed().Seconds()/1e9, "goodput-GFlops")
}

// End-to-end training-step benchmark on the CIFAR network (the unit of
// Fig. 9's throughput), via the public training API.

func BenchmarkTrainStepCIFAR(b *testing.B) {
	def, err := spgcnn.ParseNet(spgcnn.CIFARNet)
	if err != nil {
		b.Fatal(err)
	}
	st := spgcnn.FPStrategies(1)[1]
	net, err := spgcnn.BuildNet(def, spgcnn.BuildOptions{Workers: 1, FixedStrategy: &st, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr := spgcnn.NewTrainer(net, 0.01, 4)
	ds := spgcnn.CIFARData(4)
	r := spgcnn.NewRNG(2)
	b.ReportAllocs()
	b.ResetTimer()
	images := 0
	for i := 0; i < b.N; i++ {
		images += tr.TrainEpoch(ds, r).Images
	}
	// Images over the whole timed loop, not the last epoch's own rate.
	b.ReportMetric(float64(images)/b.Elapsed().Seconds(), "images/sec")
}

// BenchmarkTrainStepAllocs measures steady-state allocations of one full
// FP+BP step on the CIFAR-10 layer-0 geometry with the paper's composed
// deployment (Stencil-Kernel FP + Sparse-Kernel BP). allocs/op is the
// headline number tracked in results/alloc_baseline.txt: it should stay
// near zero once every engine draws scratch from the execution context's
// arena instead of the Go allocator.
func BenchmarkTrainStepAllocs(b *testing.B) {
	spec := spgcnn.Square(36, 64, 3, 5, 1) // CIFAR-10 layer 0 (Table 2)
	r := spgcnn.NewRNG(9)
	const batch = 4
	var ins, outs, eis, eos []*spgcnn.Tensor
	for i := 0; i < batch; i++ {
		in := spgcnn.NewInput(spec)
		in.FillNormal(r, 0, 1)
		eo := spgcnn.NewOutput(spec)
		eo.FillNormal(r, 0, 1)
		eo.Sparsify(r, 0.85)
		ins = append(ins, in)
		eos = append(eos, eo)
		outs = append(outs, spgcnn.NewOutput(spec))
		eis = append(eis, spgcnn.NewInput(spec))
	}
	w := spgcnn.NewWeights(spec)
	w.FillNormal(r, 0, 0.1)
	dw := spgcnn.NewWeights(spec)

	fe := spgcnn.NewExec(spgcnn.FPStrategies(2)[2], spec, 2) // stencil
	be := spgcnn.NewExec(spgcnn.BPStrategies(2)[2], spec, 2) // sparse

	step := func() {
		fe.Forward(outs, ins, w)
		be.BackwardInput(eis, eos, w)
		be.BackwardWeights(dw, eos, ins)
	}
	step() // warm-up: grow scratch to steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
