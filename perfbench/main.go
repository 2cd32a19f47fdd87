// Command perfbench is the repository benchmark. It runs one workload
// against the program's public Go API for a fixed time, checks the
// outputs, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	perfbench -workload train-cifar -seed 1 -seconds 30 -trace 0
//
// run.sh builds and runs it from the repository root. The benchmark is a
// Go module of its own, so the repository's go test ./... leaves it out;
// its tests run with: cd perfbench && go test .
//
// The workloads:
//
//   - train-cifar: single-replica SGD on netdef.CIFARNet, batch 16, one
//     worker per CPU, planner-chosen conv strategies. The conv engines do
//     most of the work, including the sparse BP at ~0.94 gradient
//     sparsity. No serving or data-parallel code runs.
//   - train-dp-imagenet100: dataparallel.Trainer on netdef.ImageNet100Net,
//     one single-worker replica per CPU, global batch 16, all-reduce and
//     sparse sync on auto. The only workload that runs the exchange and
//     barrier layer, and it deploys other strategies on other shapes.
//   - serve-mnist: serve.Model of netdef.MNISTNet behind serve.Server, fed
//     by an in-process generator calling the HTTP handler: open-loop
//     Poisson arrivals at three fixed rates, then a closed loop that
//     measures capacity. Forward passes at batch 1 to 8 only, so JSON
//     decoding, admission, batching and padding are a large share.
//
// The seed sets the dataset, the shuffle order, the weight initialisation,
// the request inputs and the arrival times. Before the result line the
// benchmark prints a record of the run: the deployed strategy of every
// conv layer, phase and bucket, the planner's counters, the host and
// GOMAXPROCS, so spread caused by the planner choosing differently from
// run to run can be traced to the run that caused it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"spgcnn/internal/machine"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration // the measured phase
	trace    bool
	// sessions is how many times a run sets its workload up afresh (the
	// planner measures again and may deploy other strategies) and
	// measures it, each for an equal share of the run. A run reports
	// medians over its sessions, so one session caught by a noisy
	// neighbour or an unlucky strategy choice does not move the result.
	sessions int
	// epochImages is the training dataset size: 128 images are 8 steps,
	// so the planner's every-second-epoch re-check runs in every session.
	epochImages int
	// wrap, when non-nil, wraps every built layer outside its timing
	// wrapper (tests inject faults with it).
	wrap func(nn.Layer) nn.Layer
}

// record is the per-run provenance line.
type record struct {
	Workload   string          `json:"workload"`
	Seed       uint64          `json:"seed"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Host       machine.Host    `json:"host"`
	Sessions   []sessionRecord `json:"sessions"`
	Problems   []string        `json:"problems,omitempty"`
}

// sessionRecord is what one session set up, deployed and measured.
// Deployed maps "<conv>/<phase>" (and "/b<bucket>" when serving) to the
// strategy the planner deployed there.
type sessionRecord struct {
	SetupS     float64           `json:"setup_s"`
	Throughput float64           `json:"throughput_per_s"`
	P50Ms      float64           `json:"latency_p50_ms"`
	P90Ms      float64           `json:"latency_p90_ms"`
	Deployed   map[string]string `json:"deployed"`
	Plan       plan.Stats        `json:"plan"`
}

// setupTimes returns the set-up seconds of every session.
func (r record) setupTimes() []float64 {
	var out []float64
	for _, s := range r.Sessions {
		out = append(out, s.SetupS)
	}
	return out
}

var workloads = map[string]func(config) (*outcome, error){
	"train-cifar":          trainCIFAR,
	"train-dp-imagenet100": trainDP,
	"serve-mnist":          serveMNIST,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "train-cifar, train-dp-imagenet100 or serve-mnist")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	cfg := config{workload: *workload, seed: *seed, trace: *trace == 1,
		measure:  time.Duration(*seconds * float64(time.Second)),
		sessions: 5, epochImages: 128}
	res, rec, err := measure(fn, cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	fmt.Fprint(stdout, "record ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(res)
}

// measure runs one workload and selects the metrics the mode reports.
func measure(fn func(config) (*outcome, error), cfg config) (result, record, error) {
	o, err := fn(cfg)
	if err != nil {
		return result{}, record{}, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rec := o.record
	rec.Workload, rec.Seed = cfg.workload, cfg.seed
	rec.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rec.Host = machine.HostInfo()
	rec.Problems = o.problems
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res, err := o.result(defs)
	return res, rec, err
}
