package nn

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// TestFitPinned pins Fit bit for bit: the per-epoch losses and every final
// weight and bias of a paper-shaped network, for both optimizers. The
// golden values come from the allocating backprop that the per-layer
// scratch buffers replaced.
func TestFitPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden float bits are pinned on amd64 (no fused multiply-add)")
	}
	cases := []struct {
		name string
		tc   TrainConfig
		want uint64
	}{
		{"adam", TrainConfig{Epochs: 12, Optimizer: Adam, Seed: 5}, 0xf24d51d51bd1726b},
		{"sgd-l2", TrainConfig{Epochs: 12, BatchSize: 7, Optimizer: SGD, Seed: 6, L2: 1e-3}, 0xb17ae525afde5391},
	}
	for _, c := range cases {
		X, Y := pinnedData(150)
		n, err := New(Config{Inputs: 6, Hidden: []int{12, 12, 6}, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		losses, err := n.Fit(X, Y, c.tc)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		putF := func(f float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
		for _, l := range losses {
			putF(l)
		}
		for _, l := range n.layers {
			for _, w := range l.w {
				putF(w)
			}
			for _, b := range l.b {
				putF(b)
			}
		}
		for _, x := range X[:10] {
			putF(n.Predict(x))
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: Fit hash = %#x, want %#x", c.name, got, c.want)
		}
	}
}

// pinnedData draws a noisy, roughly linearly separable binary problem.
func pinnedData(n int) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, n)
	Y := make([]float64, n)
	for i := range X {
		x := make([]float64, 6)
		s := 0.0
		for j := range x {
			x[j] = rng.NormFloat64()
			s += float64(j+1) * x[j]
		}
		X[i] = x
		if s+rng.NormFloat64() > 0 {
			Y[i] = 1
		}
	}
	return X, Y
}

// TestBackpropAllocationFree checks that a training step's forward and
// backward passes run entirely in the layers' scratch.
func TestBackpropAllocationFree(t *testing.T) {
	n, err := New(Config{Inputs: 6, Hidden: []int{12, 12, 6}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	X, Y := pinnedData(8)
	if allocs := testing.AllocsPerRun(100, func() { n.backprop(X[1], Y[1]) }); allocs != 0 {
		t.Errorf("backprop allocates %v times per example, want 0", allocs)
	}
}

// TestConcurrentPredict runs inference from several goroutines on one
// trained network; under -race it proves Forward shares no scratch.
func TestConcurrentPredict(t *testing.T) {
	n, err := New(Config{Inputs: 6, Hidden: []int{12, 12, 6}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	X, Y := pinnedData(64)
	if _, err := n.Fit(X, Y, TrainConfig{Epochs: 2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(X))
	for i, x := range X {
		want[i] = n.Predict(x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, x := range X {
				if got := n.Predict(x); got != want[i] {
					t.Errorf("example %d: concurrent Predict = %v, want %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
