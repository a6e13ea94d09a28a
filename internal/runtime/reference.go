package runtime

import (
	"fmt"

	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// ConvChoice describes the layout a program was lowered with for one
// convolution layer, and the arena workspace its GEMM kernel claims.
type ConvChoice struct {
	Layer          string
	Layout         tensor.Layout
	WorkspaceBytes int64
}

// ConvChoices lists the program's layout (Choices) for every convolution
// layer in layer order, together with its workspace.
func (p *Program) ConvChoices() []ConvChoice {
	var out []ConvChoice
	for i, lay := range p.Choices() {
		if conv, ok := p.Net.Layers[i].(*layers.Conv); ok {
			out = append(out, ConvChoice{Layer: conv.Name(), Layout: lay, WorkspaceBytes: 4 * int64(conv.WorkspaceElems(lay))})
		}
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

// ReferenceForward runs the program's network functionally, allocating layer
// by layer through layers.Forward on the kernels the program runs.  Every
// kernel fixes its accumulation order whatever the layout, so the result is
// bit-identical to the executor's output for the same program.
// Network.Forward is the independent reference, within a tolerance.
func (p *Program) ReferenceForward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Shape != p.Net.InputShape() {
		return nil, fmt.Errorf("runtime: %s input shape %v, want %v", p.Net.Name, in.Shape, p.Net.InputShape())
	}
	cur := in
	for _, l := range p.Net.Layers {
		out, err := layers.Forward(l, cur, false)
		if err != nil {
			return nil, fmt.Errorf("runtime: %s layer %q: %w", p.Net.Name, l.Name(), err)
		}
		cur = out
	}
	return cur, nil
}
