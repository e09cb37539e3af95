// Package nn implements the feed-forward neural network used by the CMF
// predictor: fully-connected layers, ReLU and sigmoid activations, binary
// cross-entropy loss, and mini-batch SGD (with momentum) and Adam
// optimizers. The paper's predictor is a three-hidden-layer network
// (12, 12, 6 neurons) with ReLU activations and a sigmoid output, trained
// for 50 epochs.
//
// Everything is deterministic given the seed, so experiments and tests are
// reproducible.
package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Activation identifies a layer activation function.
type Activation int

const (
	// Identity applies no nonlinearity.
	Identity Activation = iota
	// ReLU is max(0, x).
	ReLU
	// Sigmoid is 1/(1+e^-x); used on the output layer for binary
	// classification.
	Sigmoid
	// Tanh is the hyperbolic tangent.
	Tanh
)

func (a Activation) String() string {
	switch a {
	case Identity:
		return "identity"
	case ReLU:
		return "relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	default:
		return "unknown"
	}
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivFromOutput returns dσ/dx given the activated output y = σ(x).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// layer is one fully-connected layer: out = act(W·in + b).
type layer struct {
	in, out int
	act     Activation
	w       []float64 // out × in, row-major
	b       []float64 // out

	// Training scratch, reused for every example: the activations of the
	// last training forward pass (backward reads them) and backward's
	// dL/din. Inference never touches them, so Forward stays safe to call
	// from many goroutines.
	acts []float64 // out
	dIn  []float64 // in

	// Gradient accumulators.
	gw []float64
	gb []float64

	// Optimizer state.
	mw, vw []float64
	mb, vb []float64
}

func newLayer(in, out int, act Activation, rng *rand.Rand) *layer {
	l := &layer{
		in: in, out: out, act: act,
		w:    make([]float64, in*out),
		b:    make([]float64, out),
		acts: make([]float64, out),
		dIn:  make([]float64, in),
		gw:   make([]float64, in*out),
		gb:   make([]float64, out),
		mw:   make([]float64, in*out),
		vw:   make([]float64, in*out),
		mb:   make([]float64, out),
		vb:   make([]float64, out),
	}
	// He initialization, appropriate for ReLU layers.
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	return l
}

// forward computes act(W·x + b) into out, which must have length l.out,
// and returns it.
func (l *layer) forward(x, out []float64) []float64 {
	for o := range out {
		s := l.b[o]
		row := l.w[o*l.in : (o+1)*l.in]
		for i, v := range x {
			s += row[i] * v
		}
		out[o] = l.act.apply(s)
	}
	return out
}

// backward consumes dL/dout for the layer's last training forward pass
// (input in, output l.acts), accumulates weight grads and returns dL/din in
// the layer's scratch.
func (l *layer) backward(in, dOut []float64) []float64 {
	dIn := l.dIn
	for i := range dIn {
		dIn[i] = 0
	}
	for o := 0; o < l.out; o++ {
		dz := dOut[o] * l.act.derivFromOutput(l.acts[o])
		l.gb[o] += dz
		row := l.w[o*l.in : (o+1)*l.in]
		grow := l.gw[o*l.in : (o+1)*l.in]
		for i := range row {
			grow[i] += dz * in[i]
			dIn[i] += dz * row[i]
		}
	}
	return dIn
}

func (l *layer) zeroGrad() {
	for i := range l.gw {
		l.gw[i] = 0
	}
	for i := range l.gb {
		l.gb[i] = 0
	}
}

// Network is a feed-forward neural network for binary classification or
// regression.
type Network struct {
	layers []*layer
	inDim  int
	// dOut is backprop's dL/dout scratch for the output layer; only
	// dOut[0] is ever written, the rest stay zero.
	dOut []float64
}

// Config describes a network architecture.
type Config struct {
	// Inputs is the input feature dimension.
	Inputs int
	// Hidden lists the widths of the hidden layers (e.g. {12, 12, 6}).
	Hidden []int
	// HiddenAct is the hidden activation (default ReLU).
	HiddenAct Activation
	// OutputAct is the output activation (default Sigmoid, for binary
	// classification).
	OutputAct Activation
	// Outputs is the output dimension (default 1).
	Outputs int
	// Seed makes weight initialization deterministic.
	Seed int64
}

// New builds a network from the configuration. It returns an error for a
// non-positive input dimension or hidden width.
func New(cfg Config) (*Network, error) {
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("nn: invalid input dimension %d", cfg.Inputs)
	}
	if cfg.Outputs <= 0 {
		cfg.Outputs = 1
	}
	if cfg.HiddenAct == Identity {
		cfg.HiddenAct = ReLU
	}
	if cfg.OutputAct == Identity {
		cfg.OutputAct = Sigmoid
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{inDim: cfg.Inputs}
	prev := cfg.Inputs
	for _, h := range cfg.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: invalid hidden width %d", h)
		}
		n.layers = append(n.layers, newLayer(prev, h, cfg.HiddenAct, rng))
		prev = h
	}
	n.layers = append(n.layers, newLayer(prev, cfg.Outputs, cfg.OutputAct, rng))
	n.dOut = make([]float64, cfg.Outputs)
	return n, nil
}

// InputDim returns the expected feature-vector length.
func (n *Network) InputDim() int { return n.inDim }

// NumParams returns the total number of trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}

// Forward runs inference on one feature vector. It panics if the input
// length does not match the network's input dimension (programmer error).
// It allocates its activations and writes no network state, so concurrent
// calls are safe (training is not).
func (n *Network) Forward(x []float64) []float64 {
	if len(x) != n.inDim {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), n.inDim))
	}
	for _, l := range n.layers {
		x = l.forward(x, make([]float64, l.out))
	}
	return x
}

// Predict returns the scalar output for one input (first output unit).
func (n *Network) Predict(x []float64) float64 { return n.Forward(x)[0] }

// PredictClass returns the thresholded binary decision for one input.
func (n *Network) PredictClass(x []float64, threshold float64) bool {
	return n.Predict(x) >= threshold
}

// backprop accumulates gradients of the binary cross-entropy loss for one
// (x, y) example and returns the example loss. Assumes the output layer is a
// single sigmoid unit, so dL/dz simplifies to (p − y); we feed backward
// dL/dout = (p−y)/σ'(z) to reuse the generic layer backward.
//
// The pass runs in the layers' training scratch and allocates nothing; x
// must have the network's input dimension (Fit checks).
func (n *Network) backprop(x []float64, y float64) float64 {
	in := x
	for _, l := range n.layers {
		in = l.forward(in, l.acts)
	}
	p := in[0]
	// Clip for numerical stability of the loss (gradient uses raw p).
	pc := math.Min(math.Max(p, 1e-12), 1-1e-12)
	loss := -(y*math.Log(pc) + (1-y)*math.Log(1-pc))

	out := n.layers[len(n.layers)-1]
	d := out.act.derivFromOutput(p)
	if d < 1e-12 {
		d = 1e-12
	}
	n.dOut[0] = (p - y) / d
	grad := n.dOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		in := x
		if i > 0 {
			in = n.layers[i-1].acts
		}
		grad = n.layers[i].backward(in, grad)
	}
	return loss
}

// Optimizer identifies a gradient-descent variant.
type Optimizer int

const (
	// SGD is stochastic gradient descent with momentum 0.9.
	SGD Optimizer = iota
	// Adam is the Adam optimizer with the standard β₁=0.9, β₂=0.999.
	Adam
)

func (o Optimizer) String() string {
	if o == Adam {
		return "adam"
	}
	return "sgd"
}

// TrainConfig controls Fit.
type TrainConfig struct {
	// Epochs is the number of passes over the training data (paper: 50).
	Epochs int
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// LearningRate (default 0.01 for SGD, 0.001 for Adam).
	LearningRate float64
	// Optimizer selects SGD or Adam.
	Optimizer Optimizer
	// Seed drives shuffling.
	Seed int64
	// L2 is the weight-decay coefficient (default 0).
	L2 float64
}

// ErrBadTrainingSet is returned when X and Y disagree or are empty.
var ErrBadTrainingSet = errors.New("nn: bad training set")

// Fit trains the network on features X and binary labels Y, minimizing
// binary cross-entropy. It returns the mean training loss per epoch.
func (n *Network) Fit(X [][]float64, Y []float64, cfg TrainConfig) ([]float64, error) {
	if len(X) == 0 || len(X) != len(Y) {
		return nil, ErrBadTrainingSet
	}
	for _, x := range X {
		if len(x) != n.inDim {
			return nil, fmt.Errorf("nn: feature dim %d, want %d: %w", len(x), n.inDim, ErrBadTrainingSet)
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.LearningRate <= 0 {
		if cfg.Optimizer == Adam {
			cfg.LearningRate = 0.001
		} else {
			cfg.LearningRate = 0.01
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	losses := make([]float64, 0, cfg.Epochs)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, l := range n.layers {
				l.zeroGrad()
			}
			for _, i := range idx[start:end] {
				epochLoss += n.backprop(X[i], Y[i])
			}
			step++
			n.applyGradients(cfg, end-start, step)
		}
		losses = append(losses, epochLoss/float64(len(idx)))
	}
	return losses, nil
}

func (n *Network) applyGradients(cfg TrainConfig, batch int, step int) {
	lr := cfg.LearningRate
	inv := 1.0 / float64(batch)
	switch cfg.Optimizer {
	case Adam:
		const (
			b1  = 0.9
			b2  = 0.999
			eps = 1e-8
		)
		bc1 := 1 - math.Pow(b1, float64(step))
		bc2 := 1 - math.Pow(b2, float64(step))
		for _, l := range n.layers {
			for i := range l.w {
				g := l.gw[i]*inv + cfg.L2*l.w[i]
				l.mw[i] = b1*l.mw[i] + (1-b1)*g
				l.vw[i] = b2*l.vw[i] + (1-b2)*g*g
				l.w[i] -= lr * (l.mw[i] / bc1) / (math.Sqrt(l.vw[i]/bc2) + eps)
			}
			for i := range l.b {
				g := l.gb[i] * inv
				l.mb[i] = b1*l.mb[i] + (1-b1)*g
				l.vb[i] = b2*l.vb[i] + (1-b2)*g*g
				l.b[i] -= lr * (l.mb[i] / bc1) / (math.Sqrt(l.vb[i]/bc2) + eps)
			}
		}
	default: // SGD with momentum, reusing mw/mb as velocity.
		const momentum = 0.9
		for _, l := range n.layers {
			for i := range l.w {
				g := l.gw[i]*inv + cfg.L2*l.w[i]
				l.mw[i] = momentum*l.mw[i] - lr*g
				l.w[i] += l.mw[i]
			}
			for i := range l.b {
				l.mb[i] = momentum*l.mb[i] - lr*l.gb[i]*inv
				l.b[i] += l.mb[i]
			}
		}
	}
}

// Loss returns the mean binary cross-entropy of the network on (X, Y).
func (n *Network) Loss(X [][]float64, Y []float64) float64 {
	if len(X) == 0 {
		return math.NaN()
	}
	var total float64
	for i, x := range X {
		p := n.Predict(x)
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		total += -(Y[i]*math.Log(p) + (1-Y[i])*math.Log(1-p))
	}
	return total / float64(len(X))
}
