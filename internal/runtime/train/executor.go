package train

import (
	"context"
	"fmt"

	"memcnn/internal/kernels"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// Executor runs a compiled training step over buffers bound once, on one
// device.  It adds only what a step has and an inference run does not — the
// label staging and the loss read — around the runtime's own op interpreter
// (runtime.Executor.ExecuteOn), so a step is cancellable between ops,
// contains a panicking kernel or device into a *runtime.PanicError and can be
// instrumented exactly like an inference run.
//
// The planned binding packs every buffer into the program's arena at its
// planned offset (zero steady-state allocation, the paper's memory
// efficiency); the naive binding gives every root buffer its own storage —
// the keep-everything baseline the planned footprint is measured against,
// bit-identical in results because both run the same op list through the same
// device.
//
// An Executor is single-goroutine: a training step mutates the layer
// parameters, so concurrent steps over one network make no sense.
type Executor struct {
	prog *Program
	exec *runtime.Executor
	inst *runtime.Instance
}

// NewExecutor binds the program to one planned arena on the CPU device.
func NewExecutor(p *Program) (*Executor, error) {
	return NewExecutorOn(p, runtime.CPUDevice{})
}

// NewExecutorOn binds the program to one planned arena on the given device.
func NewExecutorOn(p *Program, dev runtime.Device) (*Executor, error) {
	return newExecutor(p, dev, true)
}

// NewNaiveExecutor binds every root buffer to its own storage — the unplanned
// reference executor.  Its allocated bytes equal the program's NaiveBytes.
func NewNaiveExecutor(p *Program, dev runtime.Device) (*Executor, error) {
	return newExecutor(p, dev, false)
}

func newExecutor(p *Program, dev runtime.Device, planned bool) (*Executor, error) {
	inst, err := runtime.NewInstance(p.Program, !planned)
	if err != nil {
		return nil, fmt.Errorf("train: binding %s: %w", p.Net.Name, err)
	}
	return &Executor{prog: p, exec: runtime.NewExecutorOn(p.Program, dev), inst: inst}, nil
}

// StepStats reports one training step.
type StepStats struct {
	// Loss is the mean softmax cross-entropy of the batch, computed from the
	// forward probabilities before the update.
	Loss float64
}

// Step runs one training step: stage the batch and labels, execute the full
// forward-loss-backward-update op list, and read the loss off the
// still-resident probability buffer.  The layer parameters are updated in
// place.
func (e *Executor) Step(images *tensor.Tensor, labels []int) (StepStats, error) {
	return e.StepCtx(context.Background(), images, labels)
}

// StepCtx is Step under a context: cancellation is checked between ops, so a
// cancelled step abandons the remaining ops.  Updates already applied by
// earlier SGD ops of the step stay applied.
func (e *Executor) StepCtx(ctx context.Context, images *tensor.Tensor, labels []int) (StepStats, error) {
	p := e.prog
	if images.Shape != p.InputShape() {
		return StepStats{}, fmt.Errorf("train: %s input shape %v, want %v", p.Net.Name, images.Shape, p.InputShape())
	}
	if len(labels) != p.Batch {
		return StepStats{}, fmt.Errorf("train: %s got %d labels for batch %d", p.Net.Name, len(labels), p.Batch)
	}
	lbl := e.inst.Buffer(p.Labels).Data
	for i, v := range labels {
		if v < 0 || v >= p.Classes {
			return StepStats{}, fmt.Errorf("train: label %d out of range for %d classes", v, p.Classes)
		}
		lbl[i] = float32(v)
	}
	if err := tensor.ConvertInto(images, e.inst.Buffer(p.Input)); err != nil {
		return StepStats{}, fmt.Errorf("train: staging input: %w", err)
	}
	if err := e.exec.ExecuteOn(ctx, e.inst); err != nil {
		return StepStats{}, fmt.Errorf("train: %w", err)
	}

	// The probability buffer doubles as the program output, so the planner
	// kept it live past the last op.
	loss, err := kernels.SoftmaxCrossEntropyLoss(e.inst.Buffer(p.Probs).Data, labels,
		kernels.SoftmaxConfig{N: p.Batch, Classes: p.Classes})
	if err != nil {
		return StepStats{}, fmt.Errorf("train: loss: %w", err)
	}
	return StepStats{Loss: loss}, nil
}
