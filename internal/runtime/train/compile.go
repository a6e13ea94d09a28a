// Package train extends the planned runtime to whole training steps: one
// compiled op list covers the forward pass, the softmax cross-entropy loss
// gradient, the backward pass and the SGD parameter update, and the memory
// planner (runtime.PlanMemory) packs the joint graph — forward activations
// the backward pass still needs, gradient buffers that die as soon as the
// upstream layer consumes them, and op-local workspaces — into one arena.
//
// Checkpointing is a planner decision: cheap activations (ReLU and pooling
// outputs) can be dropped from the stored set and recomputed just in time
// during the backward pass (OpRecompute), trading a bounded amount of forward
// FLOPs — each dropped activation is recomputed at most once — for peak arena
// bytes.  CheckpointAuto compiles both variants and keeps the smaller plan;
// a tie goes to store-all, which pays no recompute.
//
// The paper profiles its memory optimisations on complete forward-backward
// Caffe iterations and notes that forward and backward share data structures
// and convolution kernels (Section II.A, footnote 1); this package is that
// extension of the inference planner built by the earlier milestones.  So the
// forward pass is the inference builder's (runtime.Program.AddForward), its
// layouts and convolution algorithms from one choice list, the host-priced
// selection of a whole training step (runtime.SelectChoices); every gradient
// takes the layout of the forward buffer it mirrors, and both gradients of a
// convolution run on the batch-folded GEMM core (layers.Conv).  Every kernel
// is bit-deterministic, and in every layout the same, so the planned and
// naive executors, which run the same op list, agree bit for bit, and so do
// two choice lists that differ only in layouts.
package train

import (
	"fmt"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// Checkpoint selects the recompute-vs-store policy for cheap activations.
type Checkpoint int

const (
	// CheckpointAuto compiles both variants and keeps the one with the lower
	// planned peak, store-all on a tie since it pays no recompute —
	// checkpointing is a planner decision, not a user knob.
	CheckpointAuto Checkpoint = iota
	// CheckpointOff stores every forward activation until its last backward
	// use.
	CheckpointOff
	// CheckpointOn drops ReLU and pooling outputs after their forward
	// consumer and recomputes them during the backward pass.
	CheckpointOn
)

// String names the policy.
func (c Checkpoint) String() string {
	switch c {
	case CheckpointAuto:
		return "auto"
	case CheckpointOff:
		return "store"
	case CheckpointOn:
		return "recompute"
	default:
		return fmt.Sprintf("Checkpoint(%d)", int(c))
	}
}

// SGD is the optimiser the training subsystem implements: plain stochastic
// gradient descent, W -= LR · dW, applied in place by the program's OpSGD
// ops.  It is deliberately named after the update rule — internal/core's
// Optimizer, despite the name, optimises data layouts, not parameters.
type SGD struct {
	// LR is the learning rate; zero selects DefaultLR.
	LR float32
}

// DefaultLR is the learning rate used when Options leave SGD unset.
const DefaultLR = 0.01

// Options control how CompileTraining lowers a network.
type Options struct {
	// Checkpoint selects the recompute-vs-store policy (default
	// CheckpointAuto).
	Checkpoint Checkpoint
	// SGD configures the parameter update.
	SGD SGD
	// Verify runs the registered whole-program static checker
	// (internal/runtime/verify) over the compiled training step before it is
	// returned; compilation fails if any check does.  The checker must be
	// registered (import memcnn/internal/runtime/verify).
	Verify bool
}

// Program is a compiled training step: a runtime.Program whose op list covers
// forward, loss gradient, backward and SGD update, plus the training-specific
// buffer roles.
type Program struct {
	*runtime.Program

	// Batch and Classes describe the label vector and probability matrix.
	Batch   int
	Classes int
	// LR is the learning rate every OpSGD op applies.
	LR float32
	// Labels is the float32-coded label buffer the caller stages before each
	// step (listed in ExtraInputs).  The softmax output is the program's
	// Output, so the arena keeps it readable after the run for the loss.
	Labels runtime.BufferID

	// RecomputeOps counts the OpRecompute ops emitted: the program drops and
	// recomputes cheap activations iff it is positive.
	RecomputeOps int
	// StorePeakBytes is the planned peak of the store-all variant, kept for
	// reporting when the recompute plan was returned (equal to
	// Mem.PeakBytes() otherwise).
	StorePeakBytes int64
}

// CompileTraining lowers a network into a single training-step program:
// every layer's forward op, the fused softmax + cross-entropy loss gradient,
// per-layer backward-data and parameter-gradient ops, and an SGD update per
// trainable layer, ordered so each layer's input gradient is computed before
// its own update touches the weights.  The layouts and the convolutions'
// forward algorithms come from one choice list, the host-priced selection
// over every layout, each layer priced for its forward and its gradients and
// each transform for the activation and its gradient; the gradients run on
// GEMM.  The network must end in a softmax classifier; every other layer must
// implement layers.BackwardLayer.
func CompileTraining(net *network.Network, opts Options) (*Program, error) {
	if net == nil || len(net.Layers) < 2 {
		return nil, fmt.Errorf("train: network must have at least a feature layer and a classifier")
	}
	last := net.Layers[len(net.Layers)-1]
	sm, ok := last.(*layers.Softmax)
	if !ok {
		return nil, fmt.Errorf("train: network must end in a softmax classifier, got %q", last.Name())
	}
	for _, l := range net.Layers[:len(net.Layers)-1] {
		if _, ok := l.(layers.BackwardLayer); !ok {
			return nil, fmt.Errorf("train: layer %q has no backward pass", l.Name())
		}
	}
	if opts.Checkpoint < CheckpointAuto || opts.Checkpoint > CheckpointOn {
		return nil, fmt.Errorf("train: unknown checkpoint policy %v", opts.Checkpoint)
	}
	lr := opts.SGD.LR
	if lr == 0 {
		lr = DefaultLR
	}

	// Both variants lower one choice list, each at most once: store-all
	// always (its peak is reported next to whichever variant is returned),
	// recompute unless the policy rules it out.
	choices := runtime.SelectChoices(net, runtime.Uniform(net, tensor.NCHW, kernels.ConvAlgDirect), true)
	p, err := lowerTraining(net, sm, choices, lr, false)
	if err != nil {
		return nil, err
	}
	storePeak := p.Mem.PeakBytes()
	if opts.Checkpoint != CheckpointOff {
		ckpt, err := lowerTraining(net, sm, choices, lr, true)
		if err != nil {
			return nil, err
		}
		if opts.Checkpoint == CheckpointOn || (ckpt.RecomputeOps > 0 && ckpt.Mem.PeakBytes() < storePeak) {
			p = ckpt
		}
	}
	p.StorePeakBytes = storePeak
	p.Opts.Verify = opts.Verify
	if opts.Verify {
		if err := runtime.VerifyProgram(p.Program); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// lowerTraining builds the joint op list from the choice list.  The forward
// section is the inference builder's (runtime.Program.AddForward), out of
// place.  Each gradient takes the layout of the forward buffer it mirrors,
// and a recomputed activation is re-viewed through AddView as in the forward
// pass.  Only the labels, the logit gradient (the loss gradient's NCHW
// contract) and the parameter gradients (GradShape) are NCHW by name.  A
// convolution's forward and recompute ops run its chosen algorithm, its
// gradient ops record GEMM, the kernel layers.Conv's gradient methods run.
func lowerTraining(net *network.Network, sm *layers.Softmax, choices []runtime.Choice, lr float32, drop bool) (*Program, error) {
	feat := net.Layers[:len(net.Layers)-1] // layers below the classifier
	p := &runtime.Program{
		Net:         net,
		PlannerName: "train",
	}
	if drop {
		p.PlannerName = "train-ckpt"
	}
	tp := &Program{
		Program: p,
		Batch:   net.InputShape().N,
		Classes: sm.Cfg.Classes,
		LR:      lr,
	}

	fwdIn, fwdOut, err := p.AddForward(net, choices, false)
	if err != nil {
		return nil, err
	}
	dropped := make([]bool, len(net.Layers))
	if drop {
		for i, l := range feat {
			switch l.(type) {
			case *layers.ReLU, *layers.Pool:
				// Cheap to recompute: the planner drops the stored activation
				// — its live range ends at its forward consumer — and the
				// backward section rematerialises it on demand.
				dropped[i] = true
			}
		}
	}

	// Loss gradient: dLogits = (probs - onehot(labels)) / batch, fused with
	// the softmax backward so the classifier needs no backward op of its own.
	labels := p.AddBuffer(tensor.Shape{N: tp.Batch, C: 1, H: 1, W: 1}, tensor.NCHW, runtime.NoBuffer)
	p.ExtraInputs = append(p.ExtraInputs, labels)
	tp.Labels = labels
	dLogits := p.AddBuffer(sm.InputShape(), tensor.NCHW, runtime.NoBuffer)
	p.Ops = append(p.Ops, runtime.Op{
		Kind: runtime.OpLossGrad, Name: "loss " + sm.Name(), Layer: sm,
		In: p.Output, Out: dLogits, Aux: labels, Scratch: runtime.NoBuffer,
	})

	// materialize returns a buffer holding layer i's forward output valid at
	// the current backward position, emitting just-in-time OpRecompute ops
	// for dropped activations (each at most once, cached across consumers).
	recomputed := make(map[int]runtime.BufferID)
	reviews := make(map[int]runtime.BufferID) // re-derived views per layer
	var materialize func(i int) (runtime.BufferID, error)
	materializeInput := func(i int) (runtime.BufferID, error) {
		if i == 0 {
			return p.Input, nil
		}
		src, err := materialize(i - 1)
		if err != nil {
			return runtime.NoBuffer, err
		}
		if src == fwdOut[i-1] {
			return fwdIn[i], nil
		}
		// The feeding activation was recomputed into a fresh buffer: re-derive
		// the view against it.
		if v, ok := reviews[i]; ok {
			return v, nil
		}
		l := net.Layers[i]
		v, err := p.AddView(src, l.InputShape(), choices[i].Layout, "recomputed before "+l.Name())
		if err != nil {
			return runtime.NoBuffer, err
		}
		reviews[i] = v
		return v, nil
	}
	materialize = func(i int) (runtime.BufferID, error) {
		if i < 0 {
			return p.Input, nil
		}
		if !dropped[i] {
			return fwdOut[i], nil
		}
		if b, ok := recomputed[i]; ok {
			return b, nil
		}
		in, err := materializeInput(i)
		if err != nil {
			return runtime.NoBuffer, err
		}
		l := net.Layers[i]
		out, err := p.AddLayer(runtime.OpRecompute, "recompute "+l.Name(), l, in, choices[i].Alg, false)
		if err != nil {
			return runtime.NoBuffer, err
		}
		tp.RecomputeOps++
		recomputed[i] = out
		return out, nil
	}

	// Backward section, last feature layer down to the first.  Per trainable
	// layer the order is backward-data, then grad-filter, then SGD: the input
	// gradient must see the pre-update weights, and updating immediately
	// after lets the parameter-gradient buffer die two ops after its
	// definition instead of surviving to the end of the program.  The
	// gradient chain stops at the lowest trainable layer — below it no op
	// would ever read the propagated gradient.
	lowest := -1
	for i := len(feat) - 1; i >= 0; i-- {
		if _, ok := feat[i].(layers.TrainableLayer); ok {
			lowest = i
		}
	}
	if lowest == -1 {
		return nil, fmt.Errorf("train: network %s has no trainable layer", net.Name)
	}
	grad := dLogits // gradient w.r.t. the current layer's output
	for i := len(feat) - 1; i >= lowest; i-- {
		l := feat[i]
		grad, err = p.AddView(grad, l.OutputShape(), p.Buffers[fwdOut[i]].Layout, "grad into "+l.Name())
		if err != nil {
			return nil, err
		}
		bl := l.(layers.BackwardLayer) // validated by CompileTraining
		tl, trainable := l.(layers.TrainableLayer)
		alg := layers.GradientAlg(l)

		// Each gradient op's output is created before its scratch, as AddLayer
		// does: buffers defined at one op are placed in ID order, and the
		// one-op workspace fits the holes the longer-lived output leaves.
		var dIn runtime.BufferID = runtime.NoBuffer
		if i > lowest {
			// Conv and fully-connected input gradients depend only on their
			// parameters; data-dependent layers consume their forward input.
			var bwdAux runtime.BufferID = runtime.NoBuffer
			if !trainable {
				if bwdAux, err = materializeInput(i); err != nil {
					return nil, err
				}
			}
			dIn = p.AddBuffer(l.InputShape(), p.Buffers[fwdIn[i]].Layout, runtime.NoBuffer)
			p.Ops = append(p.Ops, runtime.Op{
				Kind: runtime.OpBackward, Name: "bwd " + l.Name(), Layer: l,
				In: grad, Out: dIn, Aux: bwdAux, Alg: alg, Scratch: p.AddScratch(bl.BackwardWorkspaceElems()),
			})
		}
		if trainable {
			in, err := materializeInput(i)
			if err != nil {
				return nil, err
			}
			dW := p.AddBuffer(tl.GradShape(), tensor.NCHW, runtime.NoBuffer)
			p.Ops = append(p.Ops, runtime.Op{
				Kind: runtime.OpGradFilter, Name: "grad " + l.Name(), Layer: l,
				In: grad, Out: dW, Aux: in, Alg: alg, Scratch: p.AddScratch(tl.GradWorkspaceElems()),
			})
			p.Ops = append(p.Ops, runtime.Op{
				Kind: runtime.OpSGD, Name: "sgd " + l.Name(), Layer: l,
				In: dW, Out: dW, Aux: runtime.NoBuffer, Scratch: runtime.NoBuffer, LR: lr,
			})
		}
		grad = dIn
	}

	mem, err := runtime.PlanMemory(p)
	if err != nil {
		return nil, fmt.Errorf("train: planning %s: %w", p.PlannerName, err)
	}
	p.Mem = mem
	return tp, nil
}
