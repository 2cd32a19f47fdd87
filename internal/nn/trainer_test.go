package nn

import (
	"testing"

	"spgcnn/internal/rng"
)

func TestTrainEpochLearnsAndReports(t *testing.T) {
	net := tinyTrainNet(rng.New(1))
	tr := NewTrainer(net, 0.05, 4)
	ds := &syntheticDS{n: 32, classes: 4, dims: net.InDims()}
	r := rng.New(2)
	first := tr.TrainEpoch(ds, r)
	var last EpochStats
	for e := 0; e < 5; e++ {
		last = tr.TrainEpoch(ds, r)
	}
	if !(last.Loss < first.Loss) {
		t.Fatalf("loss did not fall: %v -> %v", first.Loss, last.Loss)
	}
	if last.Epoch != 6 {
		t.Fatalf("epoch counter = %d", last.Epoch)
	}
	if last.Images != 32 || last.ImagesPerSec <= 0 || last.Seconds <= 0 {
		t.Fatalf("throughput accounting wrong: %+v", last)
	}
	if _, ok := last.ConvSparsity["conv0"]; !ok {
		t.Fatal("sparsity probe missing")
	}
}

func TestGoodputBelowDenseThroughput(t *testing.T) {
	// Goodput counts BP work discounted by sparsity, so with any ReLU
	// in the net, goodput < dense rate, and both are positive (Eq. 10).
	net := tinyTrainNet(rng.New(3))
	tr := NewTrainer(net, 0.02, 4)
	ds := &syntheticDS{n: 16, classes: 4, dims: net.InDims()}
	stats := tr.TrainEpoch(ds, rng.New(4))
	if stats.ConvGFlops <= 0 || stats.ConvGoodputGFlops <= 0 {
		t.Fatalf("non-positive rates: %+v", stats)
	}
	if stats.ConvGoodputGFlops >= stats.ConvGFlops {
		t.Fatalf("goodput %v not below dense rate %v", stats.ConvGoodputGFlops, stats.ConvGFlops)
	}
	// Consistency with the probe: useful/dense ratio matches
	// (FP + (1-s)·BP) / (FP + BP) = (1 + (1-s)) / 2 for one conv layer
	// that is the network's first, whose BP is BP-dW alone (the same
	// flops as FP here).
	s := stats.ConvSparsity["conv0"]
	wantRatio := (1 + (1 - s)) / 2
	gotRatio := stats.ConvGoodputGFlops / stats.ConvGFlops
	if diff := gotRatio - wantRatio; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("goodput ratio %v, want %v (sparsity %v)", gotRatio, wantRatio, s)
	}
}

func TestEvaluateDoesNotTrain(t *testing.T) {
	net := tinyTrainNet(rng.New(5))
	tr := NewTrainer(net, 0.05, 4)
	ds := &syntheticDS{n: 16, classes: 4, dims: net.InDims()}
	before := net.ConvLayers()[0].W.Clone()
	loss1, acc1 := tr.Evaluate(ds)
	loss2, acc2 := tr.Evaluate(ds)
	if loss1 != loss2 || acc1 != acc2 {
		t.Fatal("Evaluate is not deterministic")
	}
	after := net.ConvLayers()[0].W
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("Evaluate modified weights")
		}
	}
}

func TestTrainerBatchFloor(t *testing.T) {
	net := tinyTrainNet(rng.New(6))
	tr := NewTrainer(net, 0.05, 0)
	if tr.BatchSize != 1 {
		t.Fatalf("batch floor = %d", tr.BatchSize)
	}
}
