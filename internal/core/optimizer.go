// Package core implements the paper's contribution as a library: a memory
// optimiser that, given a network and a GPU, chooses the data layout of every
// layer and inserts the fast layout transformation between layers in
// different layouts, replaces the pooling and softmax kernels with the
// register-reuse and kernel-fusion variants of Section V, and picks the best
// convolution implementation for each chosen layout.
//
// It has one planner, Policy.Plan, and every model-domain policy is a value of
// it: the layouts it may use, the kernels it runs in each and the thresholds
// that break its ties.  The optimiser (frameworks.Optimized) is the policy
// with NCHW and CHWN and the Section V kernels; each library emulation of
// internal/frameworks is a policy with one layout and that library's kernels,
// so the whole-network benchmarks (Figs. 14 and 15) compare them all through
// the same program.
//
// The optimiser's layouts are the exact optimum of the modeled chain: Plan
// runs the chain dynamic program the compiler's selection runs on the host
// (autotune.CheapestChain), over the layers' modeled prices and the
// transformations between them.  The (Ct, Nt) heuristic of Section IV.A
// breaks its ties.  The paper refines the heuristic with a one-time check of
// whether a switch pays for its transformations (Section IV.D); the exact
// program needs no such check.  Against the heuristic with that check (one
// layer of lookahead), the program found the same layouts on all five
// networks at their own batches, on both Titans, under the paper's and the
// calibrated thresholds.  Elsewhere the check cost more, modeled total in us
// on the Titan Black (either threshold set) unless noted:
//
//	plan                     heuristic     program
//	TinyNet                       65.5        60.0
//	TinyNet, Titan X              67.0        61.6
//	AlexNet@4                  17784.6     17755.4
//	AlexNet@4, Titan X, paper  15239.3     15213.0
//	Cifar10@1                    611.1       605.4
//	Cifar10@8                   1209.5      1203.7
//	LeNet@16                     443.1       437.3
//
// Every heuristic plan in the table priced a transformation of the network's
// input that no program runs: the check moved the first layer off its
// preferred layout and charged for the move.  AlexNet@4 on the Titan X under
// the paper's thresholds also ran pool1 alone in CHWN, 4.4 us dearer than
// staying in NCHW.
//
// Naming note: the optimiser optimises memory layout and kernel choice — it
// is the paper's planner, not a training optimiser.  Gradient-descent
// training (the SGD update rule and its step loop) lives in
// internal/runtime/train.
package core

import (
	"errors"
	"fmt"

	"memcnn/internal/autotune"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// Policy is one model-domain planning policy: a name, the layouts its layers
// may run in with the implementations (gpusim.CostOptions) it runs in each,
// and the (Ct, Nt) thresholds whose heuristic breaks ties between layouts.  A
// library emulation lists one layout; the paper's optimiser lists NCHW and
// CHWN.  Thresholds matter, and must be valid, only where a policy lists more
// than one layout: the paper's published ones for the device
// (layout.TitanBlackThresholds, TitanXThresholds) or the one-time
// calibration's (layout.Calibrate).  Plan never calibrates on its own.
type Policy struct {
	Name       string
	Layouts    map[tensor.Layout]gpusim.CostOptions
	Thresholds layout.Thresholds
}

// preferredLayout returns the layout the heuristic assigns to a layer, or the
// incoming layout for layout-agnostic layers.
func preferredLayout(l layers.Layer, incoming tensor.Layout, th layout.Thresholds) tensor.Layout {
	switch lt := l.(type) {
	case *layers.Conv:
		return layout.PreferredConvLayout(lt.Cfg, th)
	case *layers.Pool:
		return layout.PreferredPoolLayout(lt.Cfg)
	default:
		// Fully-connected, ReLU, LRN and softmax layers are layout agnostic;
		// keep whatever layout the data is already in to avoid transforms.
		return incoming
	}
}

// layerCost prices l in lay under opts, the options of the policy's layout,
// and returns the options it priced: a pool under the optimised kernel gets
// the expansion factors tuned for it, and a convolution the device cannot run
// in the chosen mode (an FFT mode out of memory) runs the GEMM mode, which is
// how cuDNN falls back and what the paper reports.
func layerCost(d *gpusim.Device, l layers.Layer, lay tensor.Layout, opts gpusim.CostOptions) (float64, gpusim.CostOptions, error) {
	if p, ok := l.(*layers.Pool); ok && opts.Pool == gpusim.PoolOptimized {
		if e, _, err := autotune.TunePoolExpansion(p.Cfg, gpusim.PoolCoarsenedTimeUS(d, p.Cfg)); err == nil {
			opts.PoolExpansion = e
		}
	}
	seq, err := gpusim.LayerCost(d, l, lay, opts)
	if oom := (*gpusim.ErrOutOfMemory)(nil); errors.As(err, &oom) {
		opts.Conv = gpusim.ConvGemmImpl
		seq, err = gpusim.LayerCost(d, l, lay, opts)
	}
	if err != nil {
		return 0, opts, err
	}
	return gpusim.EstimateSequence(d, seq), opts, nil
}

// Plan is the exact chain dynamic program (autotune.CheapestChain) over the
// policy's layouts: a layer's state is a layout of the policy, priced by
// gpusim.LayerCost under that layout's options (see layerCost), and the step
// into it adds the fastest layout transformation (gpusim.BestTransform) from
// the layer below's layout, free between equal ones.  A single-layout policy
// is thus one state per layer and no transformations.  The network's input is
// written once by the host in whatever layout the first layer takes, so there
// is no transform to pay for before it (the same assumption as the paper's
// framework integration).  Of equally cheap plans the one closest to the
// heuristic wins: the fewest convolution and pooling layers off their (Ct, Nt)
// or pooling preference, and the fewest layout-agnostic layers off the layout
// the layer below hands them, so a transform sits as late as it can.  The
// thresholds thus still set the starting list, and the one-time profiling
// check of Section IV.D is the program's exact answer.
func (p Policy) Plan(d *gpusim.Device, net *network.Network) (*network.ExecutionPlan, error) {
	if net == nil || len(net.Layers) == 0 {
		return nil, fmt.Errorf("core: cannot plan an empty network")
	}
	th := p.Thresholds
	switch {
	case len(p.Layouts) == 0:
		return nil, fmt.Errorf("core: %s lists no layout", p.Name)
	case len(p.Layouts) > 1 && !th.Valid():
		return nil, fmt.Errorf("core: %s: invalid layout thresholds %v: pass the paper's or layout.Calibrate's", p.Name, th)
	}
	n := len(net.Layers)
	// cands[i] are layer i's states and node[i] their prices; into[i][a][b]
	// is state b of layer i entered from state a of the layer below, with the
	// transformation that takes.
	cands, node, into := make([][]network.PlannedLayer, n), make([][]float64, n), make([][][]network.PlannedLayer, n)
	states := make([]int, n)
	for i, l := range net.Layers {
		var costErr error
		for _, lay := range tensor.Layouts {
			opts, ok := p.Layouts[lay]
			if !ok {
				continue
			}
			us, opts, err := layerCost(d, l, lay, opts)
			if err != nil {
				costErr = fmt.Errorf("core: %s: layer %q cannot run in layout %v: %w", p.Name, l.Name(), lay, err)
				continue
			}
			cands[i] = append(cands[i], network.PlannedLayer{Layer: l, Layout: lay, Options: opts})
			node[i] = append(node[i], us)
		}
		if states[i] = len(cands[i]); states[i] == 0 {
			if costErr == nil {
				costErr = fmt.Errorf("core: %s: layer %q runs in none of the policy's layouts", p.Name, l.Name())
			}
			return nil, costErr
		}
		if i == 0 {
			continue
		}
		into[i] = make([][]network.PlannedLayer, states[i-1])
		for a, from := range cands[i-1] {
			for _, to := range cands[i] {
				pl, err := withTransform(d, to, from.Layout)
				if err != nil {
					return nil, err
				}
				into[i][a] = append(into[i][a], pl)
			}
		}
	}
	path, _ := autotune.CheapestChain(states, func(i, a, s int) (float64, bool) {
		price, in := node[i][s], tensor.NCHW // the first layer is handed NCHW
		if a >= 0 {
			in = cands[i-1][a].Layout
			if t := into[i][a][s].Transform; t != nil {
				price += gpusim.EstimateTime(d, *t).TotalUS
			}
		}
		return price, cands[i][s].Layout != preferredLayout(net.Layers[i], in, th)
	})

	plan := &network.ExecutionPlan{PlannerName: p.Name, Network: net, Device: d}
	plan.Layers = append(plan.Layers, cands[0][path[0]])
	for i := 1; i < n; i++ {
		plan.Layers = append(plan.Layers, into[i][path[i-1]][path[i]])
	}
	return plan, nil
}

// withTransform returns pl entered from layout from: with the fastest
// transformation of its input into its layout, none between equal layouts.
func withTransform(d *gpusim.Device, pl network.PlannedLayer, from tensor.Layout) (network.PlannedLayer, error) {
	if from == pl.Layout {
		return pl, nil
	}
	stats, method, err := gpusim.BestTransform(d, pl.Layer.InputShape(), from, pl.Layout)
	if err != nil {
		return pl, fmt.Errorf("core: layer %q: transforming its input from %v to %v: %w", pl.Layer.Name(), from, pl.Layout, err)
	}
	pl.Transform, pl.TransformMethod = &stats, method
	return pl, nil
}
