package nn

import (
	"time"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

// Dataset is the minimal data source the trainer consumes. Implementations
// live in internal/data (deterministic synthetic sets standing in for
// MNIST, CIFAR-10 and ImageNet — see DESIGN.md §2).
type Dataset interface {
	// Len is the number of examples.
	Len() int
	// Image writes example i into dst (shaped like the network input).
	Image(i int, dst *tensor.Tensor)
	// Label returns example i's class.
	Label(i int) int
	// Classes is the number of classes.
	Classes() int
}

// EpochStats reports one training epoch.
type EpochStats struct {
	Epoch        int
	Loss         float64
	Accuracy     float64
	Images       int
	Seconds      float64
	ImagesPerSec float64
	// ConvSparsity maps conv layer name to the mean sparsity of its
	// output-error gradients during the epoch — the Fig. 3b series.
	ConvSparsity map[string]float64
	// ConvGFlops is the dense convolution work rate achieved this epoch
	// (FP + the BP computations of every conv layer, counted dense; see
	// Network.ConvFlops).
	ConvGFlops float64
	// ConvGoodputGFlops is the USEFUL convolution work rate (Eq. 9): FP
	// counted fully, BP discounted by each layer's measured gradient
	// sparsity. The gap to ConvGFlops is what a dense BP engine wastes
	// multiplying zeros — the quantity the Sparse-Kernel recovers.
	ConvGoodputGFlops float64
}

// Trainer runs minibatch SGD.
type Trainer struct {
	Net       *Network
	LR        float32
	BatchSize int
	// Loss is the loss head (zero value is ready to use).
	Loss SoftmaxXent
	// OnStep, when set, runs before every minibatch with the global step
	// number (1-based, monotonic across epochs). Observability taps use it
	// to stamp trace events with the live step.
	OnStep func(step int64)

	epoch   int
	steps   int64
	inputs  []*tensor.Tensor
	dlogits []*tensor.Tensor
}

// NewTrainer builds a trainer with the given hyper-parameters.
func NewTrainer(net *Network, lr float32, batchSize int) *Trainer {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Trainer{Net: net, LR: lr, BatchSize: batchSize}
}

func (t *Trainer) ensureBuffers() {
	in := t.Net.InDims()
	out := t.Net.OutDims()
	for len(t.inputs) < t.BatchSize {
		t.inputs = append(t.inputs, tensor.New(in...))
		t.dlogits = append(t.dlogits, tensor.New(out...))
	}
}

// TrainEpoch performs one pass over the dataset in shuffled minibatches
// and returns the epoch statistics.
func (t *Trainer) TrainEpoch(ds Dataset, r *rng.RNG) EpochStats {
	t.ensureBuffers()
	t.epoch++
	order := r.Perm(ds.Len())
	var totalLoss float64
	correct := 0
	start := time.Now()
	for lo := 0; lo < len(order); lo += t.BatchSize {
		hi := lo + t.BatchSize
		if hi > len(order) {
			hi = len(order)
		}
		n := hi - lo
		t.steps++
		if t.OnStep != nil {
			t.OnStep(t.steps)
		}
		ins := t.inputs[:n]
		for i := 0; i < n; i++ {
			ds.Image(order[lo+i], ins[i])
		}
		logits := t.Net.Forward(ins)
		dl := t.dlogits[:n]
		for i := 0; i < n; i++ {
			loss, ok := t.Loss.Loss(logits[i], ds.Label(order[lo+i]), dl[i])
			totalLoss += loss
			if ok {
				correct++
			}
		}
		t.Net.Backward(dl, ins)
		t.Net.ApplyGrads(t.LR, n)
	}
	elapsed := time.Since(start).Seconds()
	t.Net.EpochEnd()

	stats := EpochStats{
		Epoch:        t.epoch,
		Loss:         totalLoss / float64(ds.Len()),
		Accuracy:     float64(correct) / float64(ds.Len()),
		Images:       ds.Len(),
		Seconds:      elapsed,
		ImagesPerSec: float64(ds.Len()) / elapsed,
		ConvSparsity: map[string]float64{},
	}
	for _, c := range t.Net.ConvLayers() {
		if s, ok := c.TakeSparsity(); ok {
			stats.ConvSparsity[c.Name()] = s
		}
	}
	denseFlops, usefulFlops := t.Net.ConvFlops(ds.Len(), stats.ConvSparsity)
	if elapsed > 0 {
		stats.ConvGFlops = denseFlops / elapsed / 1e9
		stats.ConvGoodputGFlops = usefulFlops / elapsed / 1e9
	}
	return stats
}

// Evaluate computes loss and accuracy without updating weights.
func (t *Trainer) Evaluate(ds Dataset) (loss, accuracy float64) {
	t.ensureBuffers()
	var totalLoss float64
	correct := 0
	scratch := tensor.New(t.Net.OutDims()...)
	for lo := 0; lo < ds.Len(); lo += t.BatchSize {
		hi := lo + t.BatchSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		n := hi - lo
		ins := t.inputs[:n]
		for i := 0; i < n; i++ {
			ds.Image(lo+i, ins[i])
		}
		logits := t.Net.Forward(ins)
		for i := 0; i < n; i++ {
			l, ok := t.Loss.Loss(logits[i], ds.Label(lo+i), scratch)
			totalLoss += l
			if ok {
				correct++
			}
		}
	}
	return totalLoss / float64(ds.Len()), float64(correct) / float64(ds.Len())
}
