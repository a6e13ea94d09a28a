package runtime

import (
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// ConvChoice describes the (layout, algorithm) choice a program was lowered
// with for one convolution layer.
type ConvChoice struct {
	Layer          string
	Alg            kernels.ConvAlgorithm
	Layout         tensor.Layout
	WorkspaceBytes int64
}

// ConvChoices lists the program's choice (Choices) for every convolution
// layer in layer order, together with the arena workspace each GEMM choice
// claims.
func (p *Program) ConvChoices() []ConvChoice {
	var out []ConvChoice
	for i, ch := range p.Choices() {
		conv, ok := p.Net.Layers[i].(*layers.Conv)
		if !ok {
			continue
		}
		// The binder sized the op's scratch buffer from this same query and
		// would have failed the compile on an error.
		elems, _ := conv.WorkspaceElems(ch.Alg, ch.Layout)
		out = append(out, ConvChoice{Layer: conv.Name(), Alg: ch.Alg, Layout: ch.Layout, WorkspaceBytes: 4 * int64(elems)})
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
	for i, ch := range p.Choices() {
		algs[p.Net.Layers[i]] = ch.Alg
	}
	return p.Net.ForwardAlgs(in, algs)
}
