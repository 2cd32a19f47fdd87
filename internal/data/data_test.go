package data

import (
	"math"
	"testing"

	"spgcnn/internal/rng"
	"spgcnn/internal/tensor"
)

func TestDeterminism(t *testing.T) {
	d := MNIST(100)
	a := tensor.New(d.Dims()...)
	b := tensor.New(d.Dims()...)
	d.Image(42, a)
	d.Image(42, b)
	if tensor.MaxAbsDiff(a, b) != 0 {
		t.Fatal("same index produced different images")
	}
	d.Image(43, b)
	if tensor.MaxAbsDiff(a, b) == 0 {
		t.Fatal("different indices produced identical images")
	}
}

func TestLabelsBalanced(t *testing.T) {
	d := CIFAR(100)
	counts := make([]int, d.Classes())
	for i := 0; i < d.Len(); i++ {
		counts[d.Label(i)]++
	}
	for k, c := range counts {
		if c != 10 {
			t.Fatalf("class %d has %d examples, want 10", k, c)
		}
	}
}

func TestDims(t *testing.T) {
	cases := []struct {
		d    *Synthetic
		dims []int
		k    int
	}{
		{MNIST(10), []int{1, 28, 28}, 10},
		{CIFAR(10), []int{3, 36, 36}, 10},
		{ImageNet100(200), []int{3, 32, 32}, 100},
	}
	for _, tc := range cases {
		got := tc.d.Dims()
		for i := range tc.dims {
			if got[i] != tc.dims[i] {
				t.Fatalf("%s dims = %v, want %v", tc.d.Name(), got, tc.dims)
			}
		}
		if tc.d.Classes() != tc.k {
			t.Fatalf("%s classes = %d, want %d", tc.d.Name(), tc.d.Classes(), tc.k)
		}
	}
}

// TestClassSeparability verifies the datasets are learnable: a trivial
// nearest-class-centroid classifier (fit on half the data) must beat
// chance by a wide margin. If this fails, training experiments (Fig. 3b,
// Fig. 9) would be exercising noise.
func TestClassSeparability(t *testing.T) {
	d := MNIST(400)
	dims := d.Dims()
	n := prod(dims)
	centroids := make([][]float64, d.Classes())
	counts := make([]int, d.Classes())
	img := tensor.New(dims...)
	for k := range centroids {
		centroids[k] = make([]float64, n)
	}
	// Fit on the first half (labels cycle, so both halves are balanced).
	half := d.Len() / 2
	for i := 0; i < half; i++ {
		d.Image(i, img)
		k := d.Label(i)
		counts[k]++
		for j, v := range img.Data {
			centroids[k][j] += float64(v)
		}
	}
	for k := range centroids {
		for j := range centroids[k] {
			centroids[k][j] /= float64(counts[k])
		}
	}
	// Test on the second half.
	correct, total := 0, 0
	for i := half; i < d.Len(); i++ {
		d.Image(i, img)
		best, bestDist := -1, 0.0
		for k := range centroids {
			dist := 0.0
			for j, v := range img.Data {
				diff := float64(v) - centroids[k][j]
				dist += diff * diff
			}
			if best == -1 || dist < bestDist {
				best, bestDist = k, dist
			}
		}
		if best == d.Label(i) {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.5 {
		t.Fatalf("nearest-centroid accuracy = %.2f, want >= 0.5 (chance is 0.1)", acc)
	}
}

func prod(dims []int) int {
	p := 1
	for _, d := range dims {
		p *= d
	}
	return p
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(Config{Examples: 0, Classes: 1, Channels: 1, Height: 1, Width: 1})
}

func TestImageShapeCheck(t *testing.T) {
	d := MNIST(10)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong dst shape did not panic")
		}
	}()
	d.Image(0, tensor.New(3, 3, 3))
}

// referenceImage is the per-channel rendering loop Image used before it
// evaluated each Gaussian once per pixel; the pixels must not change.
func referenceImage(d *Synthetic, i int, dst *tensor.Tensor) {
	label := d.Label(i)
	r := rng.New(d.seed ^ (0x9e3779b97f4a7c15 * uint64(i+1)))
	jy := (r.Float64() - 0.5) * 0.14
	jx := (r.Float64() - 0.5) * 0.14
	dst.Zero()
	fh, fw := float64(d.h), float64(d.w)
	for _, bl := range d.blobs[label] {
		cy := (bl.cy + jy) * fh
		cx := (bl.cx + jx) * fw
		sig := bl.sigma * math.Sqrt(fh*fw)
		inv := 1 / (2 * sig * sig)
		ylo, yhi := clamp(int(cy-3*sig), 0, d.h), clamp(int(cy+3*sig)+1, 0, d.h)
		xlo, xhi := clamp(int(cx-3*sig), 0, d.w), clamp(int(cx+3*sig)+1, 0, d.w)
		for c := 0; c < d.c; c++ {
			amp := bl.amp[c]
			for y := ylo; y < yhi; y++ {
				dy := float64(y) - cy
				row := dst.Row3(c, y)
				for x := xlo; x < xhi; x++ {
					dx := float64(x) - cx
					row[x] += amp * float32(math.Exp(-(dy*dy+dx*dx)*inv))
				}
			}
		}
	}
	for j := range dst.Data {
		dst.Data[j] += d.noise * float32(r.NormFloat64())
	}
}

func TestImageMatchesPerChannelRendering(t *testing.T) {
	for _, d := range []*Synthetic{MNIST(40), CIFAR(40), ImageNet100(300)} {
		got := tensor.New(d.Dims()...)
		want := tensor.New(d.Dims()...)
		for _, i := range []int{0, 1, 7, 13, 39} {
			d.Image(i, got)
			referenceImage(d, i, want)
			for j := range want.Data {
				if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
					t.Fatalf("%s image %d pixel %d: %v, want %v", d.Name(), i, j, got.Data[j], want.Data[j])
				}
			}
		}
	}
}
