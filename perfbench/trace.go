package main

import (
	"sync/atomic"
	"time"

	"spgcnn/internal/nn"
	"spgcnn/internal/tensor"
)

// layerTimes accumulates one layer's busy time while tracing is on.
type layerTimes struct {
	name                 string
	fwd, bwd, apply, end time.Duration
}

// tracer owns the per-layer rows of one network. Its wrappers are only
// called from the goroutine that runs that network, and on is flipped
// between epochs, so no field needs synchronization.
type tracer struct {
	on   bool
	rows []layerTimes
}

// timed is the nn.Layer timing wrapper the traced run is built from. With
// tracing off it only forwards the call.
type timed struct {
	nn.Layer
	tr *tracer
	i  int
}

// since adds the time from start to *d while tracing is on; start is
// from now, which costs nothing while tracing is off.
func (tr *tracer) since(d *time.Duration, start time.Time) {
	if tr.on {
		*d += time.Since(start)
	}
}

func (tr *tracer) now() time.Time {
	if !tr.on {
		return time.Time{}
	}
	return time.Now()
}

func (t timed) Forward(outs, ins []*tensor.Tensor) {
	start := t.tr.now()
	t.Layer.Forward(outs, ins)
	t.tr.since(&t.tr.rows[t.i].fwd, start)
}

func (t timed) Backward(eis, eos, ins []*tensor.Tensor) {
	start := t.tr.now()
	t.Layer.Backward(eis, eos, ins)
	t.tr.since(&t.tr.rows[t.i].bwd, start)
}

func (t timed) ApplyGrads(lr float32, batch int) {
	start := t.tr.now()
	t.Layer.ApplyGrads(lr, batch)
	t.tr.since(&t.tr.rows[t.i].apply, start)
}

func (t timed) EpochEnd() {
	start := t.tr.now()
	t.Layer.EpochEnd()
	t.tr.since(&t.tr.rows[t.i].end, start)
}

func (t timed) Unwrap() nn.Layer { return t.Layer }

// timedConv and timedFC embed the concrete layer as well, so the wrapper
// keeps the (unexported) parameter methods nn.Network.Parameters finds
// parameters by: dataparallel averages replicas through Parameters, and
// would silently stop syncing a network of plain timed wrappers.
type timedConv struct {
	*nn.Conv
	t timed
}

func (c timedConv) Forward(outs, ins []*tensor.Tensor)      { c.t.Forward(outs, ins) }
func (c timedConv) Backward(eis, eos, ins []*tensor.Tensor) { c.t.Backward(eis, eos, ins) }
func (c timedConv) ApplyGrads(lr float32, batch int)        { c.t.ApplyGrads(lr, batch) }
func (c timedConv) EpochEnd()                               { c.t.EpochEnd() }
func (c timedConv) Unwrap() nn.Layer                        { return c.Conv }

type timedFC struct {
	*nn.FC
	t timed
}

func (c timedFC) Forward(outs, ins []*tensor.Tensor)      { c.t.Forward(outs, ins) }
func (c timedFC) Backward(eis, eos, ins []*tensor.Tensor) { c.t.Backward(eis, eos, ins) }
func (c timedFC) ApplyGrads(lr float32, batch int)        { c.t.ApplyGrads(lr, batch) }
func (c timedFC) EpochEnd()                               { c.t.EpochEnd() }
func (c timedFC) Unwrap() nn.Layer                        { return c.FC }

// instrument rebuilds net around timing wrappers (off until tr.on is set).
// wrap, when non-nil, is applied outside each timing wrapper; tests use it
// to inject faults.
func instrument(net *nn.Network, wrap func(nn.Layer) nn.Layer) (*nn.Network, *tracer) {
	tr := &tracer{}
	var layers []nn.Layer
	for i, l := range net.Layers() {
		tr.rows = append(tr.rows, layerTimes{name: l.Name()})
		t := timed{Layer: l, tr: tr, i: i}
		var w nn.Layer = t
		switch c := l.(type) {
		case *nn.Conv:
			w = timedConv{Conv: c, t: t}
		case *nn.FC:
			w = timedFC{FC: c, t: t}
		}
		if wrap != nil {
			w = wrap(w)
		}
		layers = append(layers, w)
	}
	return nn.NewNetwork(layers...), tr
}

// baseConv returns the *nn.Conv under any stack of wrappers, or nil.
func baseConv(l nn.Layer) *nn.Conv {
	for {
		switch t := l.(type) {
		case *nn.Conv:
			return t
		case interface{ Unwrap() nn.Layer }:
			l = t.Unwrap()
		default:
			return nil
		}
	}
}

// reset clears the accumulated rows.
func (tr *tracer) reset() {
	for i := range tr.rows {
		tr.rows[i] = layerTimes{name: tr.rows[i].name}
	}
}

// timedData wraps a dataset, timing Image calls while on. With stepBatch
// set it also stamps the start of every global step of a data-parallel
// run, which has no per-step hook: the first image of step k is fetch
// number k·stepBatch+1, and no image of step k+1 is fetched before step k
// ends. Replicas fetch concurrently, so the counters are atomic.
type timedData struct {
	nn.Dataset
	stepBatch int64
	on        atomic.Bool
	busy      atomic.Int64 // ns in Image while on
	fetches   atomic.Int64
	stamps    chan time.Time
}

func newTimedData(ds nn.Dataset, stepBatch int) *timedData {
	d := &timedData{Dataset: ds, stepBatch: int64(stepBatch)}
	if stepBatch > 0 {
		// One stamp per step; drained after every epoch, so the buffer
		// holds one epoch's steps.
		d.stamps = make(chan time.Time, ds.Len()/stepBatch+1)
	}
	return d
}

func (d *timedData) Image(i int, dst *tensor.Tensor) {
	if d.stepBatch > 0 && (d.fetches.Add(1)-1)%d.stepBatch == 0 {
		d.stamps <- time.Now()
	}
	if !d.on.Load() {
		d.Dataset.Image(i, dst)
		return
	}
	start := time.Now()
	d.Dataset.Image(i, dst)
	d.busy.Add(int64(time.Since(start)))
}

// drain returns the step start stamps recorded since the last drain.
func (d *timedData) drain() []time.Time {
	var out []time.Time
	for {
		select {
		case t := <-d.stamps:
			out = append(out, t)
		default:
			return out
		}
	}
}
