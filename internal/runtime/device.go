package runtime

import (
	"fmt"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// Device abstracts the engine a compiled op runs on.  The executor owns the
// arena and the op ordering; a device only turns one op into results.
// CPUDevice is the one that computes; FaultDevice wraps any device with a
// seeded failure schedule.  Every device runs on the host CPU: the paper's
// GPUs are model-only (internal/gpusim), and nothing on the run path asks
// them.
//
// A Device must be safe for concurrent RunOp calls: executor instances run in
// parallel and share one device per executor.
type Device interface {
	// Name identifies the device in reports ("cpu", "faulty(cpu)").
	Name() string
	// RunOp executes op prog.Ops[opIndex] over arena-backed views.  aux
	// carries the op's second read operand (a training op's forward
	// activation or label vector) and is nil when the op declares none.
	// Alias reshapes never reach RunOp; the executor skips them.  The float64
	// result is always 0 and the executor ignores it; it stays until the
	// benchmark's traced device, which implements this interface, drops it.
	RunOp(prog *Program, opIndex int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error)
}

// CPUDevice executes compiled ops directly on the host: layout transforms via
// tensor.ConvertInto, reshape copies via tensor.ReshapeInto and layer ops
// through the layer's kernel with the scratch the compiler planned.  It is the executor's default device and the bit-equality baseline
// every other device is held to.
type CPUDevice struct{}

// Name implements Device.
func (CPUDevice) Name() string { return "cpu" }

// RunOp implements Device.
func (CPUDevice) RunOp(prog *Program, opIndex int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	op := prog.Ops[opIndex]
	switch op.Kind {
	case OpTransform:
		if err := tensor.ConvertInto(in, out); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
	case OpReshape:
		if err := tensor.ReshapeInto(in, out); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
	case OpLayer, OpRecompute:
		if err := op.Layer.ForwardInto(in, out, scratch); err != nil {
			return 0, fmt.Errorf("layer %q: %w", op.Name, err)
		}
	case OpLossGrad:
		if err := runLossGrad(op, in, out, aux); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
	case OpBackward:
		bl, ok := op.Layer.(layers.BackwardLayer)
		if !ok {
			return 0, fmt.Errorf("layer %q has no backward pass", op.Name)
		}
		if err := bl.BackwardDataInto(aux, in, out, scratch); err != nil {
			return 0, fmt.Errorf("backward %q: %w", op.Name, err)
		}
	case OpGradFilter:
		tl, ok := op.Layer.(layers.TrainableLayer)
		if !ok {
			return 0, fmt.Errorf("layer %q has no parameters", op.Name)
		}
		if err := tl.BackwardFilterInto(aux, in, out, scratch); err != nil {
			return 0, fmt.Errorf("grad-filter %q: %w", op.Name, err)
		}
	case OpSGD:
		tl, ok := op.Layer.(layers.TrainableLayer)
		if !ok {
			return 0, fmt.Errorf("layer %q has no parameters", op.Name)
		}
		if err := tl.ApplySGD(in, op.LR); err != nil {
			return 0, fmt.Errorf("sgd %q: %w", op.Name, err)
		}
	default:
		return 0, fmt.Errorf("unknown op kind %v", op.Kind)
	}
	return 0, nil
}

// runLossGrad executes the fused softmax + cross-entropy gradient: in is the
// probability matrix, aux the float32-coded labels, out the logit gradient.
// The training compiler lowers these buffers in the NCHW linearisation, where
// the N×C×1×1 backing slices are the row-major matrices themselves.
func runLossGrad(op Op, in, out, aux *tensor.Tensor) error {
	if in.Layout != tensor.NCHW || out.Layout != tensor.NCHW {
		return fmt.Errorf("loss gradient requires NCHW probability buffers, got %v/%v", in.Layout, out.Layout)
	}
	if aux == nil {
		return fmt.Errorf("loss gradient has no label buffer")
	}
	cfg := kernels.SoftmaxConfig{N: in.Shape.N, Classes: in.Shape.C}
	return kernels.SoftmaxCrossEntropyBackwardFloatInto(out.Data, in.Data, aux.Data, cfg)
}
