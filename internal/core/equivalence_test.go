package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mira/internal/analysis"
	"mira/internal/failure"
	"mira/internal/sim"
	"mira/internal/stats"
	"mira/internal/timeutil"
)

// TestFiguresPinned pins a short figure regeneration end to end: a
// failure-dense two-week simulation feeding the streaming Collector and the
// incident-window recorder, every Collector figure, and the Fig. 13
// lead-time sweep. The golden fingerprints come from the implementation
// before the allocation-free scheduler tick, the memoized profile keys, the
// per-tick plant flow, the scratch-buffer backprop and the concurrent folds;
// all of those must leave every output bit where it was.
func TestFiguresPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed golden test skipped in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("golden float bits are pinned on amd64 (no fused multiply-add)")
	}
	const (
		wantCollector = "374a35b633a85114"
		wantFig13     = "41d340ebfbbddc91"
	)
	s := sim.New(sim.Config{
		Seed:    11,
		Start:   time.Date(2016, 3, 1, 0, 0, 0, 0, timeutil.Chicago),
		End:     time.Date(2016, 3, 15, 0, 0, 0, 0, timeutil.Chicago),
		Step:    simStep,
		Failure: failure.Config{MeanEpisodesPerRack: 40},
	})
	c := analysis.NewCollector()
	windows := sim.NewIncidentWindowRecorder(int((FeatureSpan+6*time.Hour)/simStep)+1, 250, 4000)
	s.AddRecorder(c)
	s.AddRecorder(windows)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c.Finalize()
	figs := []any{
		c.Fig2YearlyTrend(), c.Fig3CoolantTimeline(), c.Fig4MonthlyProfile(), c.Fig5WeekdayProfile(),
		c.Fig6RackPowerUtil(), c.Fig7RackCoolant(), c.Fig8AmbientTimeline(), c.Fig9RackAmbient(),
		analysis.Fig11CMFPerRack(s.Log(), c), len(s.Incidents()),
	}
	if got := fingerprint(figs); got != wantCollector {
		t.Errorf("Collector figures fingerprint = %s, want %s", got, wantCollector)
	}
	points, err := LeadTimeSweep(windows.Positives(), windows.Negatives(FeatureSpan), simStep,
		DefaultLeads(), Config{Seed: 11}, DeltaFeatures)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(points); got != wantFig13 {
		t.Errorf("Fig. 13 fingerprint = %s, want %s", got, wantFig13)
	}
}

func fingerprint(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%v", v)))
	return hex.EncodeToString(sum[:8])
}

// TestCrossValidateIndependentOfCores checks that the concurrent folds give
// the same pooled confusion whether they run one at a time or side by side.
func TestCrossValidateIndependentOfCores(t *testing.T) {
	ds := rampDataset(t, 20)
	var confs []stats.Confusion
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		c, err := CrossValidate(ds, Config{Seed: 31, Epochs: 10}, 5)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		confs = append(confs, c)
	}
	if confs[0] != confs[1] {
		t.Errorf("GOMAXPROCS 1 gives %v, GOMAXPROCS 4 gives %v", confs[0], confs[1])
	}
	if confs[0].Total() != ds.Len() {
		t.Errorf("pooled confusion covers %d examples, want %d", confs[0].Total(), ds.Len())
	}
}

// TestCrossValidateSmallDataset pins the small-dataset behaviour: fewer
// examples than folds fall back to leave-one-out instead of panicking in
// the fold split, and fewer than two is a wrapped error.
func TestCrossValidateSmallDataset(t *testing.T) {
	ds := rampDataset(t, 2) // 2 positive + 2 negative examples
	if ds.Len() != 4 {
		t.Fatalf("dataset has %d examples, want 4", ds.Len())
	}
	c, err := CrossValidate(ds, Config{Seed: 3, Epochs: 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c.Total() != 4 {
		t.Errorf("leave-one-out scored %d examples, want 4", c.Total())
	}
	for _, n := range []int{0, 1} {
		small := Dataset{X: ds.X[:n], Y: ds.Y[:n]}
		if _, err := CrossValidate(small, Config{Seed: 3, Epochs: 5}, 5); !errors.Is(err, ErrTooFewExamples) {
			t.Errorf("%d examples: err = %v, want ErrTooFewExamples", n, err)
		}
	}
}

// rampDataset builds a balanced dataset of 2*perClass examples from
// synthetic windows whose inlet ramps (positives) or stays flat.
func rampDataset(t *testing.T, perClass int) Dataset {
	t.Helper()
	step := 5 * time.Minute
	n := int(12*time.Hour/step) + 1
	var pos, neg []sim.Window
	for i := 0; i < perClass; i++ {
		pos = append(pos, syntheticWindow(n, step, 0.01+0.002*float64(i)))
		neg = append(neg, syntheticWindow(n, step, 0.001*float64(i%3)))
	}
	ds, err := BuildDataset(pos, neg, step, time.Hour, DeltaFeatures, 17)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
