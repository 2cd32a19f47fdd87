package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"spgcnn/internal/serve"
)

// metricDef names one reported metric, its unit and which direction is
// better. BENCHMARK.json at the repository root lists the same metrics (a
// test keeps the two in sync).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, emitted by every
// workload. A training step and a served request are the "operation" of
// their workloads:
//
//   - setup_s: parse, build and warm up (the planner's first measurement
//     passes included);
//   - throughput_per_s: training images/s, or closed-loop served req/s;
//   - latency_p50_ms: a training step's median, or a closed-loop
//     request's. Open-loop latency, timed from each request's due time,
//     tracks the host's scheduling delays: on a shared 2-CPU host its p90
//     at the low rate doubled from one minute to the next. Tails do too:
//     over ten runs the p90 of training steps spread by 0.27 to 0.40 of
//     its median whenever a neighbour loaded the host, beyond any bound a
//     comparison can use. The traced run and the record report them.
//   - peak_heap_mb: the peak live Go heap during the measured phase.
//
// Each is the median over the run's sessions (see config.sessions).
var endToEnd = []metricDef{
	{"setup_s", "s", lower},
	{"throughput_per_s", "1/s", higher},
	{"latency_p50_ms", "ms", lower},
	{"peak_heap_mb", "MB", lower},
}

const (
	lower  = "lower"
	higher = "higher"
)

// Layer and conv names of the three networks (netdef.CIFARNet,
// ImageNet100Net, MNISTNet); a layer a network lacks reports 0.
var (
	layerNames = []string{"conv0", "relu0", "pool0", "conv1", "relu1", "pool1", "fc0"}
	convNames  = []string{"conv0", "conv1"}
	rateNames  = []string{"low", "mid", "high"}
)

// perLayer are the traced run's metrics. Times in ms are per training
// step (or per replay call for engine.*), averaged over the traced phase;
// a metric of a layer the workload does not run reports 0.
var perLayer = func() []metricDef {
	var d []metricDef
	add := func(name, unit, better string) { d = append(d, metricDef{name, unit, better}) }
	add("nn.step_ms", "ms", lower)
	add("nn.step_p90_ms", "ms", lower)
	for _, l := range layerNames {
		add("nn."+l+".fwd_ms", "ms", lower)
		add("nn."+l+".bwd_ms", "ms", lower)
	}
	add("nn.apply_grads_ms", "ms", lower)
	add("data.image_ms", "ms", lower)
	add("plan.recheck_ms", "ms", lower)
	add("nn.unattributed_ms", "ms", lower)
	add("trace.throughput_ratio", "ratio", higher)
	for _, c := range convNames {
		add("engine."+c+".fp_ms", "ms", lower)
		add("engine."+c+".bp_ei_ms", "ms", lower)
		add("engine."+c+".bp_dw_ms", "ms", lower)
		add("engine."+c+".fp_gflops", "GF/s", higher)
		add("engine."+c+".bp_goodput_gflops", "GF/s", higher)
		add("nn."+c+".eo_sparsity", "ratio", higher)
	}
	add("plan.measure_passes", "count", lower)
	add("plan.cache_hits", "count", higher)
	add("plan.pruned", "count", higher)
	add("plan.model_agreement", "ratio", higher)
	add("tensor.arena_gets_per_step", "count", lower)
	add("tensor.arena_hit_ratio", "ratio", higher)
	add("go.allocs_per_step", "count", lower)
	add("go.gc_pause_ms", "ms", lower)
	add("dataparallel.allreduce_ms_per_sync", "ms", lower)
	add("dataparallel.wire_mb_per_sync", "MB", lower)
	add("dataparallel.barrier_wait_ms_per_step", "ms", lower)
	add("dataparallel.replica_step_max_over_mean", "ratio", lower)
	add("dataparallel.delta_density", "ratio", lower)
	for _, r := range rateNames {
		add("serve.latency_ms.p50."+r, "ms", lower)
		add("serve.latency_ms.p99."+r, "ms", lower)
		add("serve.queue_wait_ms.p50."+r, "ms", lower)
		add("serve.queue_wait_ms.p99."+r, "ms", lower)
		add("serve.compute_ms.p50."+r, "ms", lower)
		add("serve.handler_ms.p50."+r, "ms", lower)
		add("serve.batch_mean."+r, "count", higher)
		add("serve.padding_ratio."+r, "ratio", lower)
		add("serve.rejected_ratio."+r, "ratio", lower)
		add("serve.gen_late_ms.p99."+r, "ms", lower)
	}
	add("serve.slo_rate_rps", "1/s", higher)
	for _, b := range serve.DefaultBuckets(serveMaxBatch) {
		add(fmt.Sprintf("serve.infer_ms.b%d", b), "ms", lower)
	}
	return d
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload measured: every metric it could compute, its
// operation counts, and the reasons any output check failed.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
	record    record
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}}
}

// fail records a failed output check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// result selects the end-to-end or per-layer metrics. A metric the
// workload does not produce reports 0; a non-finite value is a bug in the
// benchmark and fails the run rather than printing invalid JSON.
func (o *outcome) result(defs []metricDef) (result, error) {
	r := result{
		Correct:   len(o.problems) == 0 && o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v := o.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// heapPeak samples the live Go heap every 20 ms on its own
// goroutine (runtime/metrics reads do not stop the world), and once more
// after a collection when stopped. Live bytes are what the last GC
// marked: the heap in use, without the garbage whose amount depends on
// when collections happen to run.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.peak = max(h.peak, s[0].Value.Uint64())
}

// Stop ends sampling and returns the peak in MB.
func (h *heapPeak) Stop() float64 {
	close(h.stop)
	<-h.done
	runtime.GC()
	h.sample()
	return float64(h.peak) / 1e6
}

// goCounters snapshots the allocation and GC-pause totals.
type goCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readGoCounters() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{mallocs: m.Mallocs, pauseNs: m.PauseTotalNs}
}

func addGo(a, b goCounters) goCounters {
	return goCounters{mallocs: a.mallocs + b.mallocs, pauseNs: a.pauseNs + b.pauseNs}
}

// planRows fills the plan.* rows from the last session's planner.
func (o *outcome) planRows() {
	st := o.record.Sessions[len(o.record.Sessions)-1].Plan
	o.values["plan.measure_passes"] = float64(st.Measurements)
	o.values["plan.cache_hits"] = float64(st.Hits)
	o.values["plan.pruned"] = float64(st.Pruned)
	o.values["plan.model_agreement"] = st.AgreementRate()
}

// goPerOp fills go.allocs_per_step and go.gc_pause_ms from two snapshots.
func (o *outcome) goPerOp(before, after goCounters, ops int) {
	o.values["go.allocs_per_step"] = ratio(float64(after.mallocs-before.mallocs), float64(ops))
	o.values["go.gc_pause_ms"] = ratio(float64(after.pauseNs-before.pauseNs)/1e6, float64(ops))
}
