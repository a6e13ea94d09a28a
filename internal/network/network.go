// Package network assembles layers into whole CNNs, plans their execution
// (which data layout and which kernel implementation each layer uses, and
// where layout transformations are inserted), estimates the plan's execution
// time on a GPU model and runs the network functionally.
//
// The planning abstraction is what lets the benchmark harness compare the
// paper's six whole-network configurations (cuDNN-MM, cuDNN-FFT,
// cuDNN-FFT-T, cuDNN-Best, cuda-convnet and the optimised framework) on the
// same network descriptions (Figs. 14 and 15).
package network

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
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
// by layer through each layer's own (direct) kernel.  Layout is irrelevant to
// the values; layers flatten or reshape as needed.
func (n *Network) Forward(in *tensor.Tensor) (*tensor.Tensor, error) {
	return n.ForwardAlgs(in, nil)
}

// ForwardAlgs is Forward with the layers named in algs running that
// convolution algorithm instead of the direct one.  Each algorithm fixes its
// own accumulation order, so this is the bit-exact functional reference for a
// program compiled with those per-layer choices.
func (n *Network) ForwardAlgs(in *tensor.Tensor, algs map[layers.Layer]kernels.ConvAlgorithm) (*tensor.Tensor, error) {
	if in.Shape != n.InputShape() {
		return nil, fmt.Errorf("network: %s input shape %v, want %v", n.Name, in.Shape, n.InputShape())
	}
	cur := in
	for _, l := range n.Layers {
		// Reshape flattening boundaries (conv/pool -> fully connected or
		// softmax): the element count is preserved, only the logical shape
		// label changes; values carry over in canonical (N,C,H,W) order.
		if cur.Shape != l.InputShape() && cur.Shape.Elems() == l.InputShape().Elems() {
			reshaped := tensor.New(l.InputShape(), cur.Layout)
			if err := tensor.ReshapeInto(cur, reshaped); err != nil {
				return nil, fmt.Errorf("network: %s before layer %q: %w", n.Name, l.Name(), err)
			}
			cur = reshaped
		}
		out, err := layers.Forward(l, cur, algs[l])
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
	Options layers.CostOptions

	// Transform, when non-nil, is the cost of converting the incoming
	// activations from the previous layer's layout.
	Transform       *gpusim.KernelStats
	TransformMethod kernels.TransformMethod
}

// ExecutionPlan is a complete assignment of layouts, implementations and
// transformations for a network on a device.
type ExecutionPlan struct {
	PlannerName string
	Network     *Network
	Device      *gpusim.Device
	Layers      []PlannedLayer
}

// Planner produces an execution plan for a network on a device.  The
// framework emulations in internal/frameworks and the paper's optimiser in
// internal/core implement it.
type Planner interface {
	Name() string
	Plan(d *gpusim.Device, net *Network) (*ExecutionPlan, error)
}

// LayerTime is the estimated cost of one planned layer.
type LayerTime struct {
	Name        string
	Layout      tensor.Layout
	TimeUS      float64 // layer kernels only
	TransformUS float64 // layout transformation before the layer
	Kernels     []gpusim.KernelTime
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
		seq, err := pl.Layer.Cost(p.Device, pl.Layout, pl.Options)
		if err != nil {
			return Estimate{}, fmt.Errorf("network: estimating %q: %w", pl.Layer.Name(), err)
		}
		layerUS, times := gpusim.EstimateSequence(p.Device, seq)
		lt := LayerTime{Name: pl.Layer.Name(), Layout: pl.Layout, TimeUS: layerUS, Kernels: times}
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

// Validate checks that the plan covers every layer of its network in order
// and uses only supported layouts.
func (p *ExecutionPlan) Validate() error {
	if p == nil || p.Network == nil || p.Device == nil {
		return fmt.Errorf("network: plan is nil or missing its network or device")
	}
	if len(p.Layers) != len(p.Network.Layers) {
		return fmt.Errorf("network: plan has %d layers, network has %d", len(p.Layers), len(p.Network.Layers))
	}
	for i, pl := range p.Layers {
		if pl.Layer != p.Network.Layers[i] {
			return fmt.Errorf("network: plan layer %d is not the network's layer %q", i, p.Network.Layers[i].Name())
		}
		if !pl.Layer.SupportsLayout(pl.Layout) {
			return fmt.Errorf("network: layer %q does not support layout %v", pl.Layer.Name(), pl.Layout)
		}
	}
	return nil
}

// FixedLayoutPlanner plans every layer in a single layout with per-layer
// options chosen by a callback; it is the shared machinery of the library
// emulations (cuda-convnet, Caffe and the cuDNN modes all use one fixed
// layout for the whole network — the design decision the paper argues
// against).
type FixedLayoutPlanner struct {
	PlannerName string
	Layout      tensor.Layout
	// Options returns the implementation options for one layer; nil means
	// zero options for every layer.
	Options func(l layers.Layer) layers.CostOptions
	// Fallback, when non-nil, may replace the options for a layer whose cost
	// query fails (e.g. an FFT mode that runs out of memory falls back to
	// GEMM, as cuDNN does).
	Fallback func(l layers.Layer, err error) (layers.CostOptions, bool)
}

// Name implements Planner.
func (f *FixedLayoutPlanner) Name() string { return f.PlannerName }

// Plan implements Planner.
func (f *FixedLayoutPlanner) Plan(d *gpusim.Device, net *Network) (*ExecutionPlan, error) {
	plan := &ExecutionPlan{PlannerName: f.PlannerName, Network: net, Device: d}
	for _, l := range net.Layers {
		if !l.SupportsLayout(f.Layout) {
			return nil, fmt.Errorf("network: %s: layer %q does not support layout %v", f.PlannerName, l.Name(), f.Layout)
		}
		opts := layers.CostOptions{}
		if f.Options != nil {
			opts = f.Options(l)
		}
		if _, err := l.Cost(d, f.Layout, opts); err != nil {
			ok := false
			if f.Fallback != nil {
				if fbOpts, use := f.Fallback(l, err); use {
					if _, err2 := l.Cost(d, f.Layout, fbOpts); err2 == nil {
						opts, ok = fbOpts, true
					}
				}
			}
			if !ok {
				return nil, fmt.Errorf("network: %s: layer %q: %w", f.PlannerName, l.Name(), err)
			}
		}
		plan.Layers = append(plan.Layers, PlannedLayer{Layer: l, Layout: f.Layout, Options: opts})
	}
	return plan, nil
}
