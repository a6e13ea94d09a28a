package train

import (
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// Batch is one labelled training batch.
type Batch struct {
	Images *tensor.Tensor
	Labels []int
}

// Trainer drives a compiled training program step by step.
type Trainer struct {
	exec *Executor
}

// NewTrainer compiles a network for training and binds it to a planned arena
// on the CPU device — the one-call entry point.
func NewTrainer(net *network.Network, opts Options) (*Trainer, error) {
	p, err := CompileTraining(net, opts)
	if err != nil {
		return nil, err
	}
	exec, err := NewExecutor(p)
	if err != nil {
		return nil, err
	}
	return &Trainer{exec: exec}, nil
}

// Executor returns the underlying executor.
func (t *Trainer) Executor() *Executor { return t.exec }

// Step runs one training step.
func (t *Trainer) Step(b Batch) (StepStats, error) {
	return t.exec.Step(b.Images, b.Labels)
}
