// Package core implements the paper's contribution as a library: a memory
// optimiser that, given a network and a GPU, chooses the data layout of every
// layer with the (Ct, Nt) heuristic, inserts the fast layout transformation
// where consecutive layers prefer different layouts, replaces the pooling and
// softmax kernels with the register-reuse and kernel-fusion variants of
// Section V, and picks the best convolution implementation for each chosen
// layout.
//
// The optimiser is a network.Planner, so it is compared head to head with the
// library emulations of internal/frameworks in the whole-network benchmarks
// (Figs. 14 and 15).
//
// Naming note: core.Optimizer optimises memory layout and kernel choice — it
// is the paper's planner, not a training optimiser.  Gradient-descent
// training (the SGD update rule and its step loop) lives in
// internal/runtime/train.
package core

import (
	"fmt"

	"memcnn/internal/autotune"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// Options configure the optimiser.  Thresholds must be set; the zero value of
// every other field enables every optimisation.
type Options struct {
	// Thresholds are the layout-selection thresholds: the paper's published
	// ones for the device (layout.TitanBlackThresholds, TitanXThresholds) or
	// the one-time calibration's (layout.Calibrate).  Plan rejects invalid
	// ones.
	Thresholds layout.Thresholds
	// DisableTransforms forbids mixing layouts: the planner keeps the first
	// layer's preferred layout for the whole network.  Used by the ablation
	// study.
	DisableTransforms bool
	// NaiveTransforms uses the unoptimised 4-D transpose instead of the
	// tiled/vectorised kernels ("Opt+Naive Transform" in Fig. 10).
	NaiveTransforms bool
	// DisablePoolingOpt keeps the plain CHWN pooling kernel instead of the
	// auto-tuned register-reuse kernel.
	DisablePoolingOpt bool
	// DisableSoftmaxOpt keeps the baseline multi-kernel softmax instead of
	// the fused, inner-loop-parallel kernel.
	DisableSoftmaxOpt bool
	// SkipTransformCheck skips the profiling pass that keeps a layer in the
	// incoming layout when the transformation overhead would exceed the
	// layout benefit (Section IV.D describes this one-time check).
	SkipTransformCheck bool
}

// Optimizer is the paper's automatic data-layout and memory-access optimiser
// (not a gradient-descent optimiser — see the package naming note).
type Optimizer struct {
	Opts Options
}

// NewOptimizer builds an optimiser.
func NewOptimizer(opts Options) *Optimizer {
	return &Optimizer{Opts: opts}
}

// Name implements network.Planner.
func (o *Optimizer) Name() string { return "Opt" }

// preferredLayout returns the layout the heuristic assigns to a layer, or the
// incoming layout for layout-agnostic layers.
func (o *Optimizer) preferredLayout(l layers.Layer, incoming tensor.Layout, th layout.Thresholds) tensor.Layout {
	switch lt := l.(type) {
	case *layers.Conv:
		return layout.PreferredConvLayout(lt.Cfg, th)
	case *layers.Pool:
		return layout.PreferredPoolLayout(lt.Cfg)
	default:
		// Fully-connected, ReLU, LRN and softmax layers are layout agnostic;
		// keep whatever layout the data is already in to avoid transforms.
		if l.SupportsLayout(incoming) {
			return incoming
		}
		return tensor.NCHW
	}
}

// options returns the implementation options the optimiser uses for a layer
// in a given layout.
func (o *Optimizer) options(d *gpusim.Device, l layers.Layer, lay tensor.Layout) gpusim.CostOptions {
	opts := gpusim.CostOptions{}
	switch lt := l.(type) {
	case *layers.Conv:
		if lay == tensor.NCHW {
			opts.Conv = gpusim.ConvBestNCHW
		} else {
			opts.Conv = gpusim.ConvDirectImpl
		}
	case *layers.Pool:
		if lay == tensor.CHWN && !o.Opts.DisablePoolingOpt {
			opts.Pool = gpusim.PoolOptimized
			if e, _, err := autotune.TunePoolExpansion(lt.Cfg, gpusim.PoolCoarsenedTimeUS(d, lt.Cfg)); err == nil {
				opts.PoolExpansion = e
			}
		}
	case *layers.Softmax:
		if o.Opts.DisableSoftmaxOpt {
			opts.Softmax = gpusim.SoftmaxThreadPerImage
		} else {
			opts.Softmax = gpusim.SoftmaxFusedParallel
		}
	}
	return opts
}

// layerTime prices one layer in one layout (including an incoming transform
// when needed) so the planner can compare alternatives.
func (o *Optimizer) layerTime(d *gpusim.Device, l layers.Layer, lay, incoming tensor.Layout) (float64, *gpusim.KernelStats, gpusim.TransformMethod, error) {
	seq, err := gpusim.LayerCost(d, l, lay, o.options(d, l, lay))
	if err != nil {
		return 0, nil, 0, err
	}
	total := gpusim.EstimateSequence(d, seq)

	var transform *gpusim.KernelStats
	var method gpusim.TransformMethod
	if lay != incoming {
		shape := l.InputShape()
		if o.Opts.NaiveTransforms {
			stats, err := gpusim.TransformCost(d, shape, incoming, lay, gpusim.TransformNaive)
			if err != nil {
				return 0, nil, 0, err
			}
			transform, method = &stats, gpusim.TransformNaive
		} else {
			stats, m, err := gpusim.BestTransform(d, shape, incoming, lay)
			if err != nil {
				return 0, nil, 0, err
			}
			transform, method = &stats, m
		}
		total += gpusim.EstimateTime(d, *transform).TotalUS
	}
	return total, transform, method, nil
}

// nextLayoutSensitiveLayer returns the first convolution or pooling layer
// after index i, skipping the layout-agnostic layers (ReLU, LRN,
// fully-connected, softmax) whose cost does not depend on the layout.  It is
// the layer whose layout preference decides whether a layout switch at layer
// i will have to be undone.
func nextLayoutSensitiveLayer(net *network.Network, i int) layers.Layer {
	for j := i + 1; j < len(net.Layers); j++ {
		switch net.Layers[j].(type) {
		case *layers.Conv, *layers.Pool:
			return net.Layers[j]
		}
	}
	return nil
}

// Plan implements network.Planner.
func (o *Optimizer) Plan(d *gpusim.Device, net *network.Network) (*network.ExecutionPlan, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("core: cannot plan an empty network")
	}
	th := o.Opts.Thresholds
	if !th.Valid() {
		return nil, fmt.Errorf("core: invalid layout thresholds %v: pass the paper's or layout.Calibrate's", th)
	}
	plan := &network.ExecutionPlan{PlannerName: o.Name(), Network: net, Device: d}

	// The network's input starts in the first layer's preferred layout: the
	// input batch is written once by the host, so there is no transform to
	// pay for (same assumption as the paper's framework integration).
	current := o.preferredLayout(net.Layers[0], tensor.NCHW, th)
	if !net.Layers[0].SupportsLayout(current) {
		current = tensor.NCHW
	}

	for i, l := range net.Layers {
		preferred := o.preferredLayout(l, current, th)
		if o.Opts.DisableTransforms && i > 0 {
			preferred = current
		}
		if !l.SupportsLayout(preferred) {
			preferred = current
		}

		lay := preferred
		var transform *gpusim.KernelStats
		var method gpusim.TransformMethod

		if !o.Opts.SkipTransformCheck && !o.Opts.DisableTransforms {
			// One-time profiling check (Section IV.D): the heuristic proposes
			// a layout, the profile (here: the cost model) fine-tunes the
			// decision.  Each candidate layout is priced including the
			// transformation needed to enter it and, looking one layer
			// ahead, the transformation needed to leave it again if the next
			// layer will want the incoming layout back.
			candidates := []tensor.Layout{preferred}
			if current != preferred && l.SupportsLayout(current) {
				candidates = append(candidates, current)
			}
			if _, isConv := l.(*layers.Conv); isConv {
				for _, alt := range []tensor.Layout{tensor.CHWN, tensor.NCHW} {
					if alt != preferred && alt != current && l.SupportsLayout(alt) {
						candidates = append(candidates, alt)
					}
				}
			}
			bestCost := -1.0
			var bestErr error
			for _, cand := range candidates {
				cost, candTransform, candMethod, err := o.layerTime(d, l, cand, current)
				if err != nil {
					if bestErr == nil {
						bestErr = err
					}
					continue
				}
				if cand != current {
					if next := nextLayoutSensitiveLayer(net, i); next != nil {
						nextPreferred := o.preferredLayout(next, current, th)
						if nextPreferred == current && next.SupportsLayout(current) {
							if back, _, err := gpusim.BestTransform(d, next.InputShape(), cand, current); err == nil {
								cost += gpusim.EstimateTime(d, back).TotalUS
							}
						}
					}
				}
				if bestCost < 0 || cost < bestCost {
					bestCost = cost
					lay, transform, method = cand, candTransform, candMethod
				}
			}
			if bestCost < 0 {
				return nil, fmt.Errorf("core: layer %q: %v", l.Name(), bestErr)
			}
		} else if lay != current {
			_, transform, method, _ = o.layerTime(d, l, lay, current)
		}

		opts := o.options(d, l, lay)
		if _, err := gpusim.LayerCost(d, l, lay, opts); err != nil {
			return nil, fmt.Errorf("core: layer %q cannot run in layout %v: %w", l.Name(), lay, err)
		}
		plan.Layers = append(plan.Layers, network.PlannedLayer{
			Layer:           l,
			Layout:          lay,
			Options:         opts,
			Transform:       transform,
			TransformMethod: method,
		})
		current = lay
	}
	return plan, nil
}
