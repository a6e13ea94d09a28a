package runtime

import (
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// ConvChoice describes the joint (layout, algorithm) decision the compiler
// recorded for one convolution op.
type ConvChoice struct {
	Layer          string
	Alg            kernels.ConvAlgorithm
	Layout         tensor.Layout
	WorkspaceBytes int64
}

// ConvChoices lists the algorithm and layout recorded for every convolution
// op in program order, together with the arena workspace each GEMM or FFT
// choice claims.
func (p *Program) ConvChoices() []ConvChoice {
	var out []ConvChoice
	for _, op := range p.Ops {
		if op.Kind != OpLayer {
			continue
		}
		if _, ok := op.Layer.(*layers.Conv); !ok {
			continue
		}
		ch := ConvChoice{Layer: op.Name, Alg: op.Alg, Layout: p.Buffers[op.In].Layout}
		if op.Scratch != NoBuffer {
			ch.WorkspaceBytes = p.Buffers[op.Scratch].Bytes()
		}
		out = append(out, ch)
	}
	return out
}

// ScratchBytes returns the total storage of the program's op-local workspace
// buffers (before arena packing overlays them with activation storage).
func (p *Program) ScratchBytes() int64 {
	var total int64
	for _, b := range p.Buffers {
		if b.Scratch {
			total += b.Bytes()
		}
	}
	return total
}

// ReferenceForward runs the program's network functionally — allocating layer
// by layer, like Network.Forward — while mirroring the program's per-layer
// convolution algorithm choices.  Because each algorithm fixes its
// accumulation order, the result is bit-identical to the executor's output
// for the same program; it is the cross-check reference for
// algorithm-selected programs, the way Network.Forward is for direct-only
// ones (for a program compiled without algorithm selection the two references
// coincide).
func (p *Program) ReferenceForward(in *tensor.Tensor) (*tensor.Tensor, error) {
	algs := make(map[layers.Layer]kernels.ConvAlgorithm)
	for _, op := range p.Ops {
		if op.Kind == OpLayer {
			algs[op.Layer] = op.Alg
		}
	}
	return p.Net.ForwardAlgs(in, algs)
}
