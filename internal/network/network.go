// Package network assembles layers into whole CNNs and runs them functionally
// on the host kernels.  It also holds the model-domain execution plan: which
// data layout and which GPU kernel implementation each layer uses and where
// layout transformations are inserted, priced by gpusim.LayerCost on a GPU
// model and never run.
//
// The package holds no planner: core.Policy.Plan makes every execution plan,
// the paper's optimiser's and each library emulation's alike.  The runtime
// compiles a plan's layouts into a program (runtime.PlanChoices); its
// implementation options are the model's alone.
package network

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// Network is an ordered stack of layers processing one batch.
type Network struct {
	Name   string
	Batch  int
	Layers []layers.Layer
}

// New builds a network and validates that consecutive layers are compatible:
// the batch size must be constant and each layer must consume exactly the
// elements the previous one produces (fully-connected layers flatten their
// input, so only the element count is compared).
func New(name string, batch int, ls ...layers.Layer) (*Network, error) {
	if name == "" {
		return nil, fmt.Errorf("network: a network needs a name")
	}
	if batch <= 0 {
		return nil, fmt.Errorf("network: batch must be positive")
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("network: %s has no layers", name)
	}
	for i, l := range ls {
		in := l.InputShape()
		if in.N != batch {
			return nil, fmt.Errorf("network: %s layer %q expects batch %d, network batch is %d", name, l.Name(), in.N, batch)
		}
		if i == 0 {
			continue
		}
		prev := ls[i-1].OutputShape()
		if prev.Elems() != in.Elems() || prev.N != in.N {
			return nil, fmt.Errorf("network: %s layer %q input %v does not match previous output %v",
				name, l.Name(), in, prev)
		}
	}
	return &Network{Name: name, Batch: batch, Layers: ls}, nil
}

// WithBatch returns a network computing the same per-image function at a
// different batch size: every layer is cloned through Layer.WithBatch, so
// weights are shared with the receiver rather than regenerated.  A batch
// processed in slices across such clones is bit-identical to the same batch
// processed whole — the property the data-parallel replica scheduler builds
// on.  The receiver itself is returned when the batch already matches.
func (n *Network) WithBatch(batch int) (*Network, error) {
	if batch == n.Batch {
		return n, nil
	}
	ls := make([]layers.Layer, len(n.Layers))
	for i, l := range n.Layers {
		nl, err := l.WithBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("network: %s rebatching layer %q: %w", n.Name, l.Name(), err)
		}
		ls[i] = nl
	}
	return New(n.Name, batch, ls...)
}

// InputShape returns the shape the network consumes.
func (n *Network) InputShape() tensor.Shape { return n.Layers[0].InputShape() }

// OutputShape returns the shape the network produces.
func (n *Network) OutputShape() tensor.Shape { return n.Layers[len(n.Layers)-1].OutputShape() }

// Forward runs the network functionally on one input batch, allocating layer
// by layer through layers.Forward's reference switch: a convolution runs the
// float64-accumulating direct kernel, which no compiled program runs, so this
// is the reference independent of the GEMM core that programs are held to
// within a tolerance.  Layout is irrelevant to the values; layers flatten or
// reshape as needed.
func (n *Network) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Shape != n.InputShape() {
		return nil, fmt.Errorf("network: %s input shape %v, want %v", n.Name, in.Shape, n.InputShape())
	}
	cur := in
	for _, l := range n.Layers {
		out, err := layers.Forward(l, cur, true)
		if err != nil {
			return nil, fmt.Errorf("network: %s layer %q: %w", n.Name, l.Name(), err)
		}
		cur = out
	}
	return cur, nil
}

// PlannedLayer is one layer of an execution plan: the layout it runs in, the
// implementation options, and the layout transformation (if any) needed to
// bring the previous layer's output into that layout.
type PlannedLayer struct {
	Layer   layers.Layer
	Layout  tensor.Layout
	Options gpusim.CostOptions

	// Transform, when non-nil, is the cost of converting the incoming
	// activations from the previous layer's layout.
	Transform       *gpusim.KernelStats
	TransformMethod gpusim.TransformMethod
}

// ExecutionPlan is a complete assignment of layouts, implementations and
// transformations for a network on a device.
type ExecutionPlan struct {
	PlannerName string
	Network     *Network
	Device      *gpusim.Device
	Layers      []PlannedLayer
}

// LayerTime is the estimated cost of one planned layer.
type LayerTime struct {
	Name        string
	Layout      tensor.Layout
	TimeUS      float64 // layer kernels only
	TransformUS float64 // layout transformation before the layer
}

// Total returns layer time plus transformation time.
func (lt LayerTime) Total() float64 { return lt.TimeUS + lt.TransformUS }

// Estimate is the modelled execution time of a plan.
type Estimate struct {
	PlannerName string
	NetworkName string
	Device      string
	PerLayer    []LayerTime
	TotalUS     float64
	TransformUS float64 // total time spent in layout transformations
}

// Estimate prices the plan on its device.
func (p *ExecutionPlan) Estimate() (Estimate, error) {
	est := Estimate{PlannerName: p.PlannerName, NetworkName: p.Network.Name, Device: p.Device.Name}
	for _, pl := range p.Layers {
		seq, err := gpusim.LayerCost(p.Device, pl.Layer, pl.Layout, pl.Options)
		if err != nil {
			return Estimate{}, fmt.Errorf("network: estimating %q: %w", pl.Layer.Name(), err)
		}
		lt := LayerTime{Name: pl.Layer.Name(), Layout: pl.Layout, TimeUS: gpusim.EstimateSequence(p.Device, seq)}
		if pl.Transform != nil {
			lt.TransformUS = gpusim.EstimateTime(p.Device, *pl.Transform).TotalUS
		}
		est.PerLayer = append(est.PerLayer, lt)
		est.TotalUS += lt.Total()
		est.TransformUS += lt.TransformUS
	}
	return est, nil
}

// TransformCount returns how many layout transformations the plan inserts.
func (p *ExecutionPlan) TransformCount() int {
	count := 0
	for _, pl := range p.Layers {
		if pl.Transform != nil {
			count++
		}
	}
	return count
}

// Validate checks that the plan covers every layer of its network in order,
// uses only valid layouts and transforms nothing before its first layer:
// the network's input is written in whatever layout that layer takes.
func (p *ExecutionPlan) Validate() error {
	if p == nil || p.Network == nil || p.Device == nil {
		return fmt.Errorf("network: plan is nil or missing its network or device")
	}
	if len(p.Layers) != len(p.Network.Layers) {
		return fmt.Errorf("network: plan has %d layers, network has %d", len(p.Layers), len(p.Network.Layers))
	}
	if len(p.Layers) > 0 && p.Layers[0].Transform != nil {
		return fmt.Errorf("network: plan transforms the input of its first layer %q", p.Layers[0].Layer.Name())
	}
	for i, pl := range p.Layers {
		if pl.Layer != p.Network.Layers[i] {
			return fmt.Errorf("network: plan layer %d is not the network's layer %q", i, p.Network.Layers[i].Name())
		}
		if !pl.Layout.Valid() {
			return fmt.Errorf("network: layer %q has invalid layout %v", pl.Layer.Name(), pl.Layout)
		}
	}
	return nil
}
