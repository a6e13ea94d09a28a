// Command layoutplan prints the execution plan the memory optimiser chooses
// for a network: the data layout of every layer, the kernel implementation,
// and where layout transformations are inserted — the view a developer would
// use to understand what the automatic layout support is doing to their
// model (Section IV.D).
//
// The -algs flag adds the (layout, algorithm) sweep per convolution layer:
// every production algorithm priced on the modeled GPU in its natural layout,
// including the layout-switch charge from the planner's layout.  Those
// columns are model-only.  The algorithm the compiler's own selection pass
// picks, which prices on the host that runs the program, is marked
// "<- chosen".
//
// Usage:
//
//	layoutplan -network AlexNet
//	layoutplan -network AlexNet -algs
//	layoutplan -network VGG -device titanx -thresholds calibrated
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"memcnn/internal/bench"
	"memcnn/internal/core"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("layoutplan", flag.ContinueOnError)
	var (
		networkName = fs.String("network", "AlexNet", "network to plan: LeNet, Cifar10, AlexNet, ZFNet, VGG or TinyNet")
		deviceName  = fs.String("device", "titanblack", "GPU model: titanblack or titanx")
		thresholds  = fs.String("thresholds", "paper", "layout thresholds: 'paper' or 'calibrated'")
		algSweep    = fs.Bool("algs", false, "print the modeled (layout, algorithm) sweep per convolution layer, the compiler's choice marked")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	dev, err := bench.PickDevice(*deviceName)
	if err != nil {
		return fmt.Errorf("layoutplan: %w", err)
	}
	th, err := bench.PickThresholds(*thresholds, dev)
	if err != nil {
		return fmt.Errorf("layoutplan: %w", err)
	}

	net, err := workloads.ByName(*networkName)
	if err != nil {
		return fmt.Errorf("layoutplan: %w", err)
	}

	optimizer := core.NewOptimizer(core.Options{Thresholds: th})
	plan, err := optimizer.Plan(dev, net)
	if err != nil {
		return err
	}
	est, err := plan.Estimate()
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "network: %s (batch %d)\ndevice: %s\nthresholds: %v\n\n", net.Name, net.Batch, dev.Name, th)
	fmt.Fprintf(stdout, "%-12s %-6s %-28s %-12s %s\n", "layer", "layout", "implementation", "time (us)", "transform")
	for i, pl := range plan.Layers {
		impl := describeImpl(pl)
		transform := "-"
		if pl.Transform != nil {
			transform = fmt.Sprintf("%v before layer (%.1f us)", pl.TransformMethod, est.PerLayer[i].TransformUS)
		}
		fmt.Fprintf(stdout, "%-12s %-6s %-28s %-12.1f %s\n",
			pl.Layer.Name(), pl.Layout, impl, est.PerLayer[i].TimeUS, transform)
	}
	fmt.Fprintf(stdout, "\ntotal: %.0f us (%.0f us, %.1f%% spent in %d layout transformations)\n",
		est.TotalUS, est.TransformUS, 100*est.TransformUS/est.TotalUS, plan.TransformCount())

	if *algSweep {
		printAlgSweep(stdout, dev, plan)
	}
	return nil
}

// printAlgSweep prints, for every convolution layer, the candidate rows of
// the model-domain sweep (layout.ConvAlgCandidates: each algorithm priced on
// the modeled GPU in its natural layout) and marks the algorithm the compiler
// takes.  The marks are the compiler's own selection pass
// (runtime.SelectChoices) run on the plan, and that pass prices on the host,
// where the program executes: a mark can sit on a row the GPU model prices
// dearest.  A GEMM or direct choice stays in the plan's layout, and the mark
// says so where the row's natural layout differs.
func printAlgSweep(stdout io.Writer, dev *gpusim.Device, plan *network.ExecutionPlan) {
	chosen := memruntime.SelectChoices(plan.Network, memruntime.PlanChoices(plan))
	fmt.Fprintf(stdout, "\n(layout, algorithm) sweep: times modeled on %s, model-only; the mark is the compiler's choice, priced on the host\n", dev.Name)
	fmt.Fprintf(stdout, "%-12s %-14s %-6s %12s %14s %s\n", "layer", "algorithm", "layout", "kernel (us)", "switch (us)", "")
	for i, pl := range plan.Layers {
		conv, ok := pl.Layer.(*layers.Conv)
		if !ok {
			continue
		}
		for _, cand := range layout.ConvAlgCandidates(dev, conv.Cfg, pl.Layout) {
			mark := ""
			switch {
			case cand.Alg == chosen[i].Alg && cand.Layout == chosen[i].Layout:
				mark = "<- chosen"
			case cand.Alg == chosen[i].Alg:
				mark = fmt.Sprintf("<- chosen, in the plan's %v", chosen[i].Layout)
			}
			timing := fmt.Sprintf("%12.1f %14.1f", cand.TimeUS, cand.TransformUS)
			if cand.OOM {
				timing = fmt.Sprintf("%12s %14.1f", "OOM", cand.TransformUS)
			}
			fmt.Fprintf(stdout, "%-12s %-14s %-6s %s %s\n", conv.Name(), cand.Alg, cand.Layout, timing, mark)
		}
	}
}

// describeImpl summarises the implementation a planned layer will use.
func describeImpl(pl network.PlannedLayer) string {
	switch pl.Layer.(type) {
	case *layers.Conv:
		return "conv: " + pl.Options.Conv.String()
	case *layers.Pool:
		s := "pool: " + pl.Options.Pool.String()
		if pl.Options.Pool == layers.PoolOptimized {
			s += fmt.Sprintf(" (%dx%d expansion)", pl.Options.PoolExpansion.H, pl.Options.PoolExpansion.W)
		}
		return s
	case *layers.Softmax:
		return "softmax: " + pl.Options.Softmax.String()
	case *layers.FullyConnected:
		return "fc: sgemm"
	default:
		return "elementwise"
	}
}
