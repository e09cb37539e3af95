// Package core implements the paper's primary contribution: the neural-
// network-based coolant-monitor-failure predictor (§VI-B, Fig. 13).
//
// The pipeline follows the paper: the input features are the *changes* of
// the six coolant-monitor metrics (coolant flow, inlet temperature, outlet
// temperature, power, data-center temperature, and humidity) over the past
// six hours; positives are windows ending at a CMF, negatives are windows
// sampled evenly across production with no CMF in the following six hours;
// the classifier is a feed-forward network with three hidden layers
// (12, 12, 6 — tunable by Bayesian optimization), ReLU activations, a
// sigmoid output, trained for 50 epochs on a 3:1:1-style split; evaluation
// runs 5-fold cross-validation at lead times from 30 minutes to six hours.
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mira/internal/bayesopt"
	"mira/internal/nn"
	"mira/internal/sensors"
	"mira/internal/sim"
	"mira/internal/stats"
)

// FeatureSpan is the paper's feature window: the change in each metric over
// the past six hours.
const FeatureSpan = 6 * time.Hour

// NumFeatures is the input dimension: one delta per coolant-monitor metric.
const NumFeatures = int(sensors.NumMetrics)

// EndpointSmoothing is how much telemetry each end of the six-hour delta is
// averaged over, suppressing single-sample sensor noise.
const EndpointSmoothing = 30 * time.Minute

// DeltaFeatures extracts the predictor's input vector from a telemetry
// window, as seen at `lead` before the window's end: for each metric, the
// relative change between (end−lead) and (end−lead−FeatureSpan), with each
// endpoint averaged over EndpointSmoothing to suppress sensor noise.
// It returns an error when the window is too short to cover the span.
func DeltaFeatures(records []sensors.Record, step, lead time.Duration) ([]float64, error) {
	if step <= 0 {
		return nil, errors.New("core: non-positive step")
	}
	n := len(records)
	endIdx := n - 1 - int(lead/step)
	startIdx := endIdx - int(FeatureSpan/step)
	if startIdx < 0 || endIdx >= n || endIdx <= startIdx {
		return nil, fmt.Errorf("core: window of %d records cannot cover lead %v plus span %v at step %v",
			n, lead, FeatureSpan, step)
	}
	k := int(EndpointSmoothing/step) + 1
	if k > (endIdx-startIdx)/2 {
		k = (endIdx-startIdx)/2 + 1
	}
	out := make([]float64, 0, NumFeatures)
	for _, m := range sensors.AllMetrics() {
		// Early endpoint: forward mean from startIdx; late endpoint:
		// backward mean ending at endIdx. Both stay inside the window.
		var a, b float64
		for i := 0; i < k; i++ {
			a += records[startIdx+i].Value(m)
			b += records[endIdx-i].Value(m)
		}
		a /= float64(k)
		b /= float64(k)
		if a == 0 {
			out = append(out, 0)
			continue
		}
		out = append(out, (b-a)/a)
	}
	return out, nil
}

// LevelFeatures extracts the *absolute level* of each metric at the lead
// point instead of its change — the ablation showing why threshold-style
// level monitoring is insufficient (paper §VI-D).
func LevelFeatures(records []sensors.Record, step, lead time.Duration) ([]float64, error) {
	if step <= 0 {
		return nil, errors.New("core: non-positive step")
	}
	n := len(records)
	endIdx := n - 1 - int(lead/step)
	if endIdx < 0 || endIdx >= n {
		return nil, fmt.Errorf("core: window of %d records cannot cover lead %v at step %v", n, lead, step)
	}
	rec := records[endIdx]
	out := make([]float64, 0, NumFeatures)
	for _, m := range sensors.AllMetrics() {
		out = append(out, rec.Value(m))
	}
	return out, nil
}

// Dataset is a labeled feature matrix (Y ∈ {0, 1}).
type Dataset struct {
	X [][]float64
	Y []float64
}

// Len returns the number of examples.
func (d Dataset) Len() int { return len(d.X) }

// Positives returns the number of positive labels.
func (d Dataset) Positives() int {
	n := 0
	for _, y := range d.Y {
		if y == 1 {
			n++
		}
	}
	return n
}

// Extractor converts a window into features (DeltaFeatures or
// LevelFeatures, partially applied over step and lead).
type Extractor func(records []sensors.Record, step, lead time.Duration) ([]float64, error)

// BuildDataset assembles a balanced dataset from positive (pre-CMF) and
// negative (quiet) windows at the given lead time. Windows too short for
// the lead are skipped; the majority class is down-sampled to balance
// (paper: "the testing set also contains equal number of samples from both
// positive and negative classes").
func BuildDataset(positives, negatives []sim.Window, step, lead time.Duration, extract Extractor, seed int64) (Dataset, error) {
	if extract == nil {
		extract = DeltaFeatures
	}
	var pos, neg [][]float64
	for _, w := range positives {
		f, err := extract(w.Records, step, lead)
		if err != nil {
			continue
		}
		pos = append(pos, f)
	}
	for _, w := range negatives {
		f, err := extract(w.Records, step, lead)
		if err != nil {
			continue
		}
		neg = append(neg, f)
	}
	if len(pos) == 0 || len(neg) == 0 {
		return Dataset{}, fmt.Errorf("core: need both classes, got %d positive / %d negative usable windows", len(pos), len(neg))
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	n := len(pos)
	if len(neg) < n {
		n = len(neg)
	}
	var ds Dataset
	for i := 0; i < n; i++ {
		ds.X = append(ds.X, pos[i])
		ds.Y = append(ds.Y, 1)
		ds.X = append(ds.X, neg[i])
		ds.Y = append(ds.Y, 0)
	}
	return ds, nil
}

// Config controls training.
type Config struct {
	// Hidden is the architecture (default the paper's 12, 12, 6).
	Hidden []int
	// Epochs (default 50, per the paper).
	Epochs int
	// Threshold for the positive class (default 0.5).
	Threshold float64
	// Seed drives initialization and shuffling.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{12, 12, 6}
	}
	if c.Epochs <= 0 {
		c.Epochs = 50
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	return c
}

// Predictor is a trained CMF classifier.
type Predictor struct {
	net    *nn.Network
	scaler *nn.Scaler
	cfg    Config
}

// Train fits a predictor on the dataset.
func Train(ds Dataset, cfg Config) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if ds.Len() == 0 {
		return nil, errors.New("core: empty dataset")
	}
	scaler := nn.FitScaler(ds.X)
	X := scaler.TransformAll(ds.X)
	net, err := nn.New(nn.Config{Inputs: len(ds.X[0]), Hidden: cfg.Hidden, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	_, err = net.Fit(X, ds.Y, nn.TrainConfig{
		Epochs:    cfg.Epochs,
		Optimizer: nn.Adam,
		Seed:      cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	return &Predictor{net: net, scaler: scaler, cfg: cfg}, nil
}

// Probability returns P(CMF within the horizon | features).
func (p *Predictor) Probability(features []float64) float64 {
	return p.net.Predict(p.scaler.Transform(features))
}

// Predict returns the thresholded decision.
func (p *Predictor) Predict(features []float64) bool {
	return p.Probability(features) >= p.cfg.Threshold
}

// Evaluate scores the predictor on a labeled set.
func (p *Predictor) Evaluate(ds Dataset) stats.Confusion {
	var c stats.Confusion
	for i, x := range ds.X {
		c.Observe(p.Predict(x), ds.Y[i] == 1)
	}
	return c
}

// ErrTooFewExamples is returned by CrossValidate for a dataset with fewer
// than two examples, which no split can both train and test on.
var ErrTooFewExamples = errors.New("core: too few examples to cross-validate")

// CrossValidate runs k-fold cross-validation (paper: 5-fold, "for
// robustness against sample selection") and returns the pooled confusion
// matrix. A dataset with fewer than k examples (but at least two) falls
// back to leave-one-out.
//
// The folds train concurrently on at most runtime.GOMAXPROCS(0)
// goroutines. Each fold keeps its own seed and the pooled confusion is
// summed in fold order, so the result does not depend on the core count.
func CrossValidate(ds Dataset, cfg Config, k int) (stats.Confusion, error) {
	cfg = cfg.withDefaults()
	if k <= 1 {
		k = 5
	}
	n := ds.Len()
	if n < 2 {
		return stats.Confusion{}, fmt.Errorf("%w: got %d", ErrTooFewExamples, n)
	}
	k = min(k, n)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	folds := stats.KFold(n, k, rng)
	confs := make([]stats.Confusion, len(folds))
	errs := make([]error, len(folds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(folds)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fi := int(next.Add(1) - 1); fi < len(folds); fi = int(next.Add(1) - 1) {
				confs[fi], errs[fi] = evaluateFold(ds, cfg, fi, folds[fi])
			}
		}()
	}
	wg.Wait()
	var pooled stats.Confusion
	for fi := range folds {
		if errs[fi] != nil {
			return stats.Confusion{}, fmt.Errorf("core: fold %d: %w", fi, errs[fi])
		}
		pooled.Add(confs[fi])
	}
	return pooled, nil
}

// evaluateFold trains on every example outside test, seeded by the fold
// index, and scores the held-out examples.
func evaluateFold(ds Dataset, cfg Config, fi int, test []int) (stats.Confusion, error) {
	inTest := make([]bool, ds.Len())
	for _, i := range test {
		inTest[i] = true
	}
	train := Dataset{X: make([][]float64, 0, ds.Len()-len(test)), Y: make([]float64, 0, ds.Len()-len(test))}
	for i := range ds.X {
		if !inTest[i] {
			train.X = append(train.X, ds.X[i])
			train.Y = append(train.Y, ds.Y[i])
		}
	}
	p, err := Train(train, Config{Hidden: cfg.Hidden, Epochs: cfg.Epochs, Threshold: cfg.Threshold, Seed: cfg.Seed + int64(fi)*101})
	if err != nil {
		return stats.Confusion{}, err
	}
	var c stats.Confusion
	for _, i := range test {
		c.Observe(p.Predict(ds.X[i]), ds.Y[i] == 1)
	}
	return c, nil
}

// LeadPoint is one Fig. 13 x-axis position.
type LeadPoint struct {
	Lead      time.Duration
	Confusion stats.Confusion
}

// LeadTimeSweep evaluates the predictor at each lead time with k-fold
// cross-validation — the Fig. 13 series. Leads should descend from six
// hours to 30 minutes.
func LeadTimeSweep(positives, negatives []sim.Window, step time.Duration, leads []time.Duration, cfg Config, extract Extractor) ([]LeadPoint, error) {
	var out []LeadPoint
	for _, lead := range leads {
		ds, err := BuildDataset(positives, negatives, step, lead, extract, cfg.Seed+int64(lead/time.Minute))
		if err != nil {
			return nil, fmt.Errorf("core: lead %v: %w", lead, err)
		}
		conf, err := CrossValidate(ds, cfg, 5)
		if err != nil {
			return nil, fmt.Errorf("core: lead %v: %w", lead, err)
		}
		out = append(out, LeadPoint{Lead: lead, Confusion: conf})
	}
	return out, nil
}

// DefaultLeads is the Fig. 13 x-axis: 30 minutes to six hours.
func DefaultLeads() []time.Duration {
	return []time.Duration{
		6 * time.Hour, 5 * time.Hour, 4 * time.Hour, 3 * time.Hour,
		2 * time.Hour, time.Hour, 30 * time.Minute,
	}
}

// TuneArchitecture uses Bayesian optimization (the paper's hyper-parameter
// tuning method) to pick the hidden-layer widths minimizing cross-validated
// loss. budget is the number of BO iterations after the initial random
// probes.
func TuneArchitecture(ds Dataset, cfg Config, budget int) ([]int, error) {
	cfg = cfg.withDefaults()
	grid := bayesopt.IntGrid(
		[]int{4, 8, 12, 16},
		[]int{4, 8, 12, 16},
		[]int{2, 4, 6, 8},
	)
	objective := func(x []float64) float64 {
		hidden := []int{int(x[0]), int(x[1]), int(x[2])}
		conf, err := CrossValidate(ds, Config{Hidden: hidden, Epochs: cfg.Epochs, Seed: cfg.Seed}, 3)
		if err != nil {
			return 1e9
		}
		return 1 - conf.Accuracy()
	}
	res, err := bayesopt.Minimize(objective, bayesopt.Config{
		Candidates:  grid,
		InitSamples: 4,
		Iterations:  budget,
		LengthScale: 6,
		Seed:        cfg.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	return []int{int(res.Best[0]), int(res.Best[1]), int(res.Best[2])}, nil
}
