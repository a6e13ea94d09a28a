package core

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/autotune"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// layerUS prices l in lay under the optimiser's options; ok is false where
// the layer cannot run in it.
func (o *Optimizer) layerUS(d *gpusim.Device, l layers.Layer, lay tensor.Layout) (us float64, ok bool) {
	if !l.SupportsLayout(lay) {
		return 0, false
	}
	seq, err := gpusim.LayerCost(d, l, lay, o.options(d, l, lay))
	if err != nil {
		return 0, false
	}
	return gpusim.EstimateSequence(d, seq), true
}

// transformUS prices the fastest transformation of l's input between two
// layouts, 0 between equal ones.
func transformUS(t *testing.T, d *gpusim.Device, l layers.Layer, from, to tensor.Layout) float64 {
	t.Helper()
	if from == to {
		return 0
	}
	stats, _, err := gpusim.BestTransform(d, l.InputShape(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	return gpusim.EstimateTime(d, stats).TotalUS
}

// optimumUS is the cheapest modeled total of any assignment of NCHW and CHWN
// to the layers, the input free in either: a plain min-plus pass over the
// chain, with no tie-break.
func (o *Optimizer) optimumUS(t *testing.T, d *gpusim.Device, net *network.Network) float64 {
	best := map[tensor.Layout]float64{}
	for i, l := range net.Layers {
		next := map[tensor.Layout]float64{}
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			us, ok := o.layerUS(d, l, lay)
			if !ok {
				continue
			}
			in := math.Inf(1)
			if i == 0 {
				in = 0
			}
			for from, p := range best {
				in = min(in, p+transformUS(t, d, l, from, lay))
			}
			next[lay] = in + us
		}
		best = next
	}
	total := math.Inf(1)
	for _, p := range best {
		total = min(total, p)
	}
	return total
}

// heuristicUS prices the paper's heuristic list without its one-time check:
// every layer in its preferredLayout, walked from the input, and a
// transformation wherever the layout changes.
func (o *Optimizer) heuristicUS(t *testing.T, d *gpusim.Device, net *network.Network) float64 {
	total, cur := 0.0, tensor.NCHW
	for i, l := range net.Layers {
		lay := o.preferredLayout(l, cur, o.Opts.Thresholds)
		if !l.SupportsLayout(lay) {
			lay = cur
		}
		us, ok := o.layerUS(d, l, lay)
		if !ok {
			t.Fatalf("%s: layer %q cannot run in its preferred layout %v", net.Name, l.Name(), lay)
		}
		total += us
		if i > 0 {
			total += transformUS(t, d, l, cur, lay)
		}
		cur = lay
	}
	return total
}

// TestPlanIsTheChainOptimum: on the five networks and TinyNet at their own
// batches, and on the workloads' batches where a first layer leaves its
// preferred layout, on both Titans under the paper's and the calibrated
// thresholds, the plan's modeled total is the cheapest any layout assignment
// reaches, and no dearer than the heuristic's list without the check.
func TestPlanIsTheChainOptimum(t *testing.T) {
	var nets []*network.Network
	for _, name := range []string{"TinyNet", "LeNet", "Cifar10", "AlexNet", "ZFNet", "VGG"} {
		net, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, w := range []struct {
		name  string
		batch int
	}{{"AlexNet", 4}, {"Cifar10", 8}, {"LeNet", 16}} {
		net, err := workloads.ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if net, err = net.WithBatch(w.batch); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, d := range []*gpusim.Device{gpusim.TitanBlack(), gpusim.TitanX()} {
		paper := layout.TitanBlackThresholds()
		if d.Name == gpusim.TitanX().Name {
			paper = layout.TitanXThresholds()
		}
		for _, th := range []layout.Thresholds{paper, layout.Calibrate(d)} {
			o := NewOptimizer(Options{Thresholds: th})
			for _, net := range nets {
				plan, err := o.Plan(d, net)
				if err != nil {
					t.Fatal(err)
				}
				est, err := plan.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s %v %s@%d", d.Name, th, net.Name, net.InputShape().N)
				if want := o.optimumUS(t, d, net); !autotune.Ties(est.TotalUS, want) {
					t.Errorf("%s: plan prices %.4f us, the cheapest assignment %.4f", at, est.TotalUS, want)
				}
				if h := o.heuristicUS(t, d, net); est.TotalUS > h && !autotune.Ties(est.TotalUS, h) {
					t.Errorf("%s: plan prices %.4f us, the heuristic's list %.4f", at, est.TotalUS, h)
				}
			}
		}
	}
}
