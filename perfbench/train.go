package main

import (
	"math"
	"runtime"
	"time"

	"spgcnn/internal/data"
	"spgcnn/internal/dataparallel"
	"spgcnn/internal/exec"
	"spgcnn/internal/netdef"
	"spgcnn/internal/nn"
	"spgcnn/internal/plan"
	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

const (
	trainBatch = 16
	trainLR    = 0.01
	replayReps = 5
)

// trainPhase is what one stretch of whole training epochs measured.
type trainPhase struct {
	images    int
	elapsed   time.Duration
	stepMs    []float64
	losses    []float64
	nonFinite int // steps of epochs whose loss was not finite
}

// epochFn trains one epoch and returns its image count, mean loss, and
// the start time of each of its steps.
type epochFn func() (images int, loss float64, starts []time.Time)

// runEpochs trains whole epochs until d has passed, and at least atLeast. A step lasts from its
// start to the next step's start; an epoch's last step ends when the
// epoch returns, so it carries the epoch-end planner re-check.
func runEpochs(d time.Duration, atLeast int, epoch epochFn) trainPhase {
	var p trainPhase
	deadline := time.Now().Add(d)
	for len(p.losses) < atLeast || time.Now().Before(deadline) {
		start := time.Now()
		images, loss, starts := epoch()
		end := time.Now()
		p.elapsed += end.Sub(start)
		p.images += images
		p.losses = append(p.losses, loss)
		for i, s := range starts {
			next := end
			if i+1 < len(starts) {
				next = starts[i+1]
			}
			p.stepMs = append(p.stepMs, ms(next.Sub(s)))
		}
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			p.nonFinite += len(starts)
		}
	}
	return p
}

func (p trainPhase) imagesPerSec() float64 { return ratio(float64(p.images), p.elapsed.Seconds()) }

// add pools q into p.
func (p *trainPhase) add(q trainPhase) {
	p.images += q.images
	p.elapsed += q.elapsed
	p.stepMs = append(p.stepMs, q.stepMs...)
	p.nonFinite += q.nonFinite
}

// session is one set-up of a training workload: fresh planner, network(s)
// and trainer.
type session struct {
	planner  *plan.Planner
	ctxs     []*exec.Ctx
	tracers  []*tracer // one per replica; tracers[0] is reported
	replica0 *nn.Network
	data     *timedData
	raw      nn.Dataset // data without the wrapper, for the check batch
	batch    int        // images of replica 0 per step
	epoch    epochFn
	dp       *dpTotals // data-parallel telemetry; nil for one replica
	check    func(o *outcome)
}

// traceTotals pools the traced phases of every session.
type traceTotals struct {
	steps         int
	stepMs        float64
	rows          []layerTimes // replica 0, by layer index
	recheck       time.Duration
	image         time.Duration // one replica's share
	dp            dpTotals
	gets, hits    int64
	before, after goCounters
}

// dpTotals sums dataparallel.Stats over the epochs of a phase.
type dpTotals struct {
	replicaTotal, replicaWait []float64 // seconds per replica
	allReduce                 float64   // seconds
	syncs                     int
	wire                      int64
	densitySum                float64
	densityN                  int // epochs that measured a delta density
}

func (d *dpTotals) add(s dataparallel.Stats) {
	if d.replicaTotal == nil {
		d.replicaTotal = make([]float64, len(s.Replicas))
		d.replicaWait = make([]float64, len(s.Replicas))
	}
	for i, r := range s.Replicas {
		d.replicaTotal[i] += r.Total
		d.replicaWait[i] += r.BarrierWait
	}
	d.allReduce += s.AllReduceSeconds
	d.syncs += s.Syncs
	d.wire += s.WireBytes
	if s.MeanDeltaDensity >= 0 {
		d.densitySum += s.MeanDeltaDensity
		d.densityN++
	}
}

func (d *dpTotals) merge(e dpTotals) {
	if d.replicaTotal == nil {
		d.replicaTotal = make([]float64, len(e.replicaTotal))
		d.replicaWait = make([]float64, len(e.replicaWait))
	}
	for i := range e.replicaTotal {
		d.replicaTotal[i] += e.replicaTotal[i]
		d.replicaWait[i] += e.replicaWait[i]
	}
	d.allReduce += e.allReduce
	d.syncs += e.syncs
	d.wire += e.wire
	d.densitySum += e.densitySum
	d.densityN += e.densityN
}

// runTraining sets the workload up cfg.sessions times and measures each
// set-up for an equal share of the measured time. The planner measures
// afresh in every session and may deploy other strategies; the run
// reports the median over sessions of throughput and step percentiles.
// With tracing, the second half of each session is traced. The last
// session's network is checked, and replayed when tracing.
func runTraining(cfg config, setup func() (*session, error)) (*outcome, error) {
	o := newOutcome()
	var (
		base, traced trainPhase
		tputs, heaps []float64
		p50s, p90s   []float64
		tt           traceTotals
		s            *session
	)
	share := cfg.measure / time.Duration(cfg.sessions)
	for i := 0; i < cfg.sessions; i++ {
		s = nil // let the previous session's networks be collected
		runtime.GC()
		start := time.Now()
		var err error
		if s, err = setup(); err != nil {
			return nil, err
		}
		setupS := time.Since(start).Seconds()

		runtime.GC()
		heap := startHeapPeak()
		// A session trains at least two epochs, so the loss can be seen
		// to fall.
		untraced, atLeast := share, 2
		if cfg.trace {
			untraced, atLeast = share/2, 1
		}
		p := runEpochs(untraced, atLeast, s.epoch)
		tputs = append(tputs, p.imagesPerSec())
		p50s = append(p50s, percentile(p.stepMs, 50))
		p90s = append(p90s, percentile(p.stepMs, 90))
		base.add(p)
		losses := p.losses
		if cfg.trace {
			q := s.traced(&tt, share-untraced)
			traced.add(q)
			losses = append(losses, q.losses...)
		}
		heaps = append(heaps, heap.Stop())
		o.record.Sessions = append(o.record.Sessions, sessionRecord{SetupS: setupS,
			Throughput: p.imagesPerSec(), P50Ms: p50s[i], P90Ms: p90s[i],
			Deployed: deployed(s.replica0), Plan: s.planner.Stats()})
		if len(losses) < 2 || !(losses[len(losses)-1] < losses[0]) {
			o.fail("session %d: training loss did not fall over %d epochs: %v", i, len(losses), losses)
		}
	}
	o.values["setup_s"] = median(o.record.setupTimes())
	o.values["throughput_per_s"] = median(tputs)
	o.values["latency_p50_ms"] = median(p50s)
	o.values["peak_heap_mb"] = median(heaps)
	o.attempted += int64(len(base.stepMs) + len(traced.stepMs))
	o.failed += int64(base.nonFinite + traced.nonFinite)
	if cfg.trace {
		tt.report(o)
		o.values["nn.step_p90_ms"] = percentile(traced.stepMs, 90)
		o.values["trace.throughput_ratio"] = ratio(traced.imagesPerSec(), base.imagesPerSec())
	}
	if s.check != nil {
		s.check(o)
	}
	s.finish(o, cfg.trace)
	return o, nil
}

// traced runs d of epochs with every timing wrapper on and pools the
// per-layer rows, counters and data-parallel telemetry into tt.
func (s *session) traced(tt *traceTotals, d time.Duration) trainPhase {
	for _, tr := range s.tracers {
		tr.reset()
		tr.on = true
	}
	s.data.busy.Store(0)
	s.data.on.Store(true)
	if s.dp != nil {
		*s.dp = dpTotals{}
	}
	gets, hits := s.arena()
	before := readGoCounters()
	p := runEpochs(d, 1, s.epoch)
	after := readGoCounters()
	gets2, hits2 := s.arena()
	for _, tr := range s.tracers {
		tr.on = false
	}
	s.data.on.Store(false)

	tt.steps += len(p.stepMs)
	for _, v := range p.stepMs {
		tt.stepMs += v
	}
	if tt.rows == nil {
		tt.rows = make([]layerTimes, len(s.tracers[0].rows))
	}
	for i, r := range s.tracers[0].rows {
		t := &tt.rows[i]
		t.name = r.name
		t.fwd += r.fwd
		t.bwd += r.bwd
		t.apply += r.apply
	}
	// Every replica's EpochEnd runs in turn on the coordinating goroutine,
	// so all of them sit on the step's critical path.
	for _, tr := range s.tracers {
		for _, r := range tr.rows {
			tt.recheck += r.end
		}
	}
	// Replicas fetch their shards concurrently; report one replica's share.
	tt.image += time.Duration(s.data.busy.Load()) / time.Duration(len(s.tracers))
	if s.dp != nil {
		tt.dp.merge(*s.dp)
	}
	tt.gets += gets2 - gets
	tt.hits += hits2 - hits
	tt.before, tt.after = addGo(tt.before, before), addGo(tt.after, after)
	return p
}

func (s *session) arena() (gets, hits int64) {
	for _, c := range s.ctxs {
		a := c.Arena().Stats()
		gets += a.Gets
		hits += a.Hits
	}
	return gets, hits
}

// report fills the per-layer rows, per traced step, and checks that they
// nest inside the step: the remainder, nn.unattributed_ms, may not be
// negative beyond timer noise.
func (tt *traceTotals) report(o *outcome) {
	steps := float64(tt.steps)
	perStep := func(d time.Duration) float64 { return ms(d) / steps }
	step := tt.stepMs / steps
	var rows, apply float64
	for _, r := range tt.rows {
		o.values["nn."+r.name+".fwd_ms"] = perStep(r.fwd)
		o.values["nn."+r.name+".bwd_ms"] = perStep(r.bwd)
		rows += perStep(r.fwd + r.bwd)
		apply += perStep(r.apply)
	}
	o.values["nn.step_ms"] = step
	o.values["nn.apply_grads_ms"] = apply
	o.values["plan.recheck_ms"] = perStep(tt.recheck)
	o.values["data.image_ms"] = perStep(tt.image)
	rows += apply + perStep(tt.recheck) + perStep(tt.image)
	if d := tt.dp; d.syncs > 0 {
		o.values["dataparallel.allreduce_ms_per_sync"] = ratio(d.allReduce*1e3, float64(d.syncs))
		o.values["dataparallel.wire_mb_per_sync"] = ratio(float64(d.wire)/1e6, float64(d.syncs))
		o.values["dataparallel.delta_density"] = ratio(d.densitySum, float64(d.densityN))
		var maxTotal, sumTotal float64
		for _, s := range d.replicaTotal {
			maxTotal = math.Max(maxTotal, s)
			sumTotal += s
		}
		o.values["dataparallel.replica_step_max_over_mean"] = ratio(maxTotal, sumTotal/float64(len(d.replicaTotal)))
		// Replica 0's rows plus its barrier wait make the slowest
		// replica's step; the all-reduce follows it.
		wait := d.replicaWait[0] * 1e3 / steps
		o.values["dataparallel.barrier_wait_ms_per_step"] = wait
		rows += wait + d.allReduce*1e3/steps
	}
	o.values["nn.unattributed_ms"] = step - rows
	if step-rows < -0.02*step {
		o.fail("traced rows (%.3f ms) exceed the step (%.3f ms)", rows, step)
	}
	o.values["tensor.arena_gets_per_step"] = ratio(float64(tt.gets), steps)
	o.values["tensor.arena_hit_ratio"] = ratio(float64(tt.hits), float64(tt.gets))
	o.goPerOp(tt.before, tt.after, tt.steps)
}

// finish checks one batch through replica 0's layers, replays the
// deployed engines when tracing, and records the deployment.
func (s *session) finish(o *outcome, trace bool) {
	ins := newBatch(s.batch, s.replica0.InDims())
	labels := make([]int, s.batch)
	for i := range ins {
		s.raw.Image(i, ins[i])
		labels[i] = s.raw.Label(i)
	}
	o.attempted++
	caps, problems := checkBatch(s.replica0.Layers(), ins, labels)
	if len(problems) > 0 {
		o.failed++
		o.problems = append(o.problems, problems...)
	}
	if trace {
		for _, c := range caps {
			c.replay(o, replayReps)
			o.values["nn."+c.conv.Name()+".eo_sparsity"] = c.sparsity
		}
	}
	o.planRows()
}

// deployed maps each conv layer's phase to its deployed strategy.
func deployed(net *nn.Network) map[string]string {
	out := map[string]string{}
	for _, l := range net.Layers() {
		c := baseConv(l)
		if c == nil {
			continue
		}
		fp, bp, _ := c.Selections()
		if fp.Chosen != nil {
			out[c.Name()+"/fp"] = fp.Chosen.Strategy().Name
		}
		if bp.Chosen != nil {
			out[c.Name()+"/bp"] = bp.Chosen.Strategy().Name
		}
	}
	return out
}

// syntheticSet is a seeded synthetic dataset shaped like the network input.
func syntheticSet(name string, n, classes int, dims []int, seed uint64) *data.Synthetic {
	return data.New(data.Config{Name: name, Examples: n, Classes: classes,
		Channels: dims[0], Height: dims[1], Width: dims[2], Seed: seed})
}

// trainCIFAR is single-replica SGD on netdef.CIFARNet with the planner
// choosing every conv strategy, as users run spg-train -net cifar.
func trainCIFAR(cfg config) (*outcome, error) {
	def, err := netdef.Parse(netdef.CIFARNet)
	if err != nil {
		return nil, err
	}
	return runTraining(cfg, func() (*session, error) {
		planner := plan.New(plan.Options{})
		ctx := exec.New(runtime.NumCPU())
		net, err := netdef.Build(def, netdef.BuildOptions{Ctx: ctx, Planner: planner, Seed: cfg.seed})
		if err != nil {
			return nil, err
		}
		wnet, tr := instrument(net, cfg.wrap)
		trainer := nn.NewTrainer(wnet, trainLR, trainBatch)
		dims := wnet.InDims()
		trainer.TrainEpoch(syntheticSet("cifar", trainBatch, 10, dims, cfg.seed), rng.New(cfg.seed^0x3a3a))

		ds := syntheticSet("cifar", cfg.epochImages, 10, dims, cfg.seed)
		s := &session{planner: planner, ctxs: []*exec.Ctx{ctx}, tracers: []*tracer{tr}, replica0: wnet,
			data: newTimedData(ds, 0), raw: ds, batch: trainBatch}
		r := rng.New(cfg.seed)
		var starts []time.Time
		trainer.OnStep = func(int64) { starts = append(starts, time.Now()) }
		s.epoch = func() (int, float64, []time.Time) {
			starts = starts[:0]
			st := trainer.TrainEpoch(s.data, r)
			return st.Images, st.Loss, starts
		}
		return s, nil
	})
}

// trainDP is synchronous data-parallel SGD on netdef.ImageNet100Net: one
// single-worker replica per CPU sharing one planner, global batch 16,
// cost-model-ranked all-reduce and density-gated sparse sync.
func trainDP(cfg config) (*outcome, error) {
	def, err := netdef.Parse(netdef.ImageNet100Net)
	if err != nil {
		return nil, err
	}
	// The global batch must shard evenly: the largest power of two up to
	// the CPU count.
	replicas := 1
	for replicas*2 <= runtime.NumCPU() && replicas*2 <= trainBatch {
		replicas *= 2
	}
	return runTraining(cfg, func() (*session, error) {
		planner := plan.New(plan.Options{})
		s := &session{planner: planner, batch: trainBatch / replicas, dp: &dpTotals{}}
		var buildErr error
		build := func(int) *nn.Network {
			ctx := exec.New(1)
			net, err := netdef.Build(def, netdef.BuildOptions{Ctx: ctx, Planner: planner, Seed: cfg.seed})
			if err != nil {
				buildErr = err
				return nil
			}
			wnet, tr := instrument(net, cfg.wrap)
			s.ctxs, s.tracers = append(s.ctxs, ctx), append(s.tracers, tr)
			return wnet
		}
		dpt, err := dataparallel.New(build, dataparallel.Config{
			Replicas: replicas, LR: trainLR, GlobalBatch: trainBatch,
			AllReduce: dataparallel.MethodAuto, SparseSync: dataparallel.SparseAuto,
		})
		if buildErr != nil {
			return nil, buildErr
		}
		if err != nil {
			return nil, err
		}
		s.replica0 = dpt.Replica(0)
		dims := s.replica0.InDims()
		dpt.TrainEpoch(syntheticSet("imagenet100", trainBatch, 100, dims, cfg.seed), rng.New(cfg.seed^0x3a3a))

		ds := syntheticSet("imagenet100", cfg.epochImages, 100, dims, cfg.seed)
		s.raw, s.data = ds, newTimedData(ds, trainBatch)
		r := rng.New(cfg.seed)
		s.epoch = func() (int, float64, []time.Time) {
			st := dpt.TrainEpoch(s.data, r)
			s.dp.add(st)
			return st.Images, st.Loss, s.data.drain()
		}
		// Every step ends in a sync, so the replicas must hold
		// bit-identical parameters.
		s.check = func(o *outcome) {
			ref := dpt.Replica(0).Parameters()
			if len(ref) == 0 {
				o.fail("replica 0 exposes no parameters")
			}
			for i := 1; i < replicas; i++ {
				for j, p := range dpt.Replica(i).Parameters() {
					if j >= len(ref) || !tensor.Identical(p.Tensor, ref[j].Tensor) {
						o.fail("replica %d parameter %s differs from replica 0", i, p.Name)
						break
					}
				}
			}
		}
		return s, nil
	})
}
