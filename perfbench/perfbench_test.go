package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"spgcnn/internal/nn"
	"spgcnn/internal/tensor"
)

// tiny is a run small enough for a unit test.
func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 7, measure: 400 * time.Millisecond, trace: trace,
		sessions: 2, epochImages: 32}
}

// nonzero are per-layer metrics each workload must measure.
var nonzero = map[string][]string{
	"train-cifar": {"nn.step_ms", "nn.step_p90_ms", "nn.conv0.fwd_ms", "nn.relu0.bwd_ms", "nn.conv1.bwd_ms", "data.image_ms",
		"engine.conv0.fp_ms", "engine.conv1.bp_dw_ms", "engine.conv0.bp_goodput_gflops",
		"plan.measure_passes", "trace.throughput_ratio", "tensor.arena_gets_per_step"},
	"train-dp-imagenet100": {"nn.step_ms", "nn.step_p90_ms", "nn.pool1.fwd_ms", "nn.fc0.bwd_ms", "engine.conv1.fp_gflops",
		"dataparallel.allreduce_ms_per_sync", "dataparallel.wire_mb_per_sync",
		"dataparallel.replica_step_max_over_mean", "plan.cache_hits"},
	"serve-mnist": {"serve.latency_ms.p50.low", "serve.latency_ms.p99.high", "serve.compute_ms.p50.mid",
		"serve.batch_mean.high", "serve.infer_ms.b1", "serve.infer_ms.b8", "plan.measure_passes"},
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for name, fn := range workloads {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			mode := "end-to-end"
			if trace {
				defs, mode = perLayer, "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				res, rec, err := measure(fn, tiny(name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d failed: %v", res.Correct, res.Failed, res.Attempted, rec.Problems)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v", d.name, m.Value)
					}
				}
				if !trace {
					return
				}
				for _, k := range nonzero[name] {
					if res.Metrics[k].Value <= 0 {
						t.Errorf("%s = %v, want > 0", k, res.Metrics[k].Value)
					}
				}
				if name != "serve-mnist" {
					checkRowsAddUp(t, res.Metrics)
				}
				if len(rec.Sessions) != 2 || len(rec.Sessions[1].Deployed) == 0 {
					t.Errorf("record has no deployment: %+v", rec.Sessions)
				}
			})
		}
	}
}

// checkRowsAddUp checks that the emitted per-layer rows and the
// unattributed remainder sum to the step, which fails if a layer's time
// is counted under a name that is not emitted.
func checkRowsAddUp(t *testing.T, ms map[string]metric) {
	t.Helper()
	sum := 0.0
	for k, m := range ms {
		if strings.HasPrefix(k, "nn.") && (strings.HasSuffix(k, ".fwd_ms") || strings.HasSuffix(k, ".bwd_ms")) {
			sum += m.Value
		}
	}
	for _, k := range []string{"nn.apply_grads_ms", "data.image_ms", "plan.recheck_ms", "nn.unattributed_ms"} {
		sum += ms[k].Value
	}
	if sync := ms["dataparallel.allreduce_ms_per_sync"].Value; sync > 0 {
		// One sync per step.
		sum += sync + ms["dataparallel.barrier_wait_ms_per_step"].Value
	}
	if step := ms["nn.step_ms"].Value; math.Abs(sum-step) > 1e-6*step {
		t.Errorf("rows sum to %v ms, step is %v ms", sum, step)
	}
}

// perturb shifts one output value of the layer it wraps.
type perturb struct{ nn.Layer }

func (p perturb) Forward(outs, ins []*tensor.Tensor) {
	p.Layer.Forward(outs, ins)
	outs[0].Data[0] += 0.5
}

func (p perturb) Unwrap() nn.Layer { return p.Layer }

func TestPerturbedConvFailsOutputCheck(t *testing.T) {
	cfg := tiny("train-cifar", false)
	cfg.wrap = func(l nn.Layer) nn.Layer {
		if l.Name() == "conv1" {
			return perturb{l}
		}
		return l
	}
	res, rec, err := measure(trainCIFAR, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed conv1 passed the output check: %+v", res)
	}
	if !strings.Contains(strings.Join(rec.Problems, "\n"), "conv1: FP") {
		t.Errorf("problems do not name conv1's FP: %v", rec.Problems)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "nope"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-workload", "serve-mnist", "-seconds", "0"}, &out); err == nil {
		t.Error("zero seconds accepted")
	}
	if out.Len() != 0 {
		t.Errorf("failed runs printed %q", out.String())
	}
}

func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []def                   `json:"end_to_end"`
		PerLayer  []def                   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	same := func(kind string, got []def, defs []metricDef) {
		var w []def
		for _, d := range defs {
			w = append(w, def{d.name, d.unit, d.better})
		}
		if len(got) != len(w) {
			t.Errorf("BENCHMARK.json has %d %s metrics, program %d", len(got), kind, len(w))
		}
		for i := range w {
			if i >= len(got) || got[i] != w[i] {
				js, _ := json.Marshal(w)
				t.Errorf("BENCHMARK.json %s metrics differ at %d; want %s", kind, i, js)
				return
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
