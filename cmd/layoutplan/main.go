// Command layoutplan prints the execution plan the memory optimiser chooses
// for a network: the data layout of every layer, the kernel implementation,
// and where layout transformations are inserted — the view a developer would
// use to understand what the automatic layout support is doing to their
// model (Section IV.D).
//
// The -algs flag adds the joint (layout, algorithm) sweep per convolution
// layer: every production algorithm priced in its natural layout — including
// the layout-switch charge from the planner's layout — through the same
// internal/layout candidate rows the compiler decides from, so the tool and
// CompileWithOptions can never disagree.
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
	"os"
	"strings"

	"memcnn/internal/autotune"
	"memcnn/internal/core"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/netconfig"
	"memcnn/internal/network"
	"memcnn/internal/workloads"
)

func main() {
	var (
		networkName = flag.String("network", "AlexNet", "network to plan: LeNet, Cifar10, AlexNet, ZFNet, VGG")
		configPath  = flag.String("config", "", "JSON network configuration file (overrides -network)")
		annotate    = flag.Bool("annotate", false, "with -config: print the configuration re-annotated with the chosen layouts")
		deviceName  = flag.String("device", "titanblack", "GPU model: titanblack or titanx")
		thresholds  = flag.String("thresholds", "paper", "layout thresholds: 'paper' or 'calibrated'")
		algSweep    = flag.Bool("algs", false, "print the compiler's joint (layout, algorithm) sweep per convolution layer")
	)
	flag.Parse()

	dev := gpusim.TitanBlack()
	if strings.EqualFold(*deviceName, "titanx") {
		dev = gpusim.TitanX()
	}
	th := layout.TitanBlackThresholds()
	if strings.Contains(dev.Name, "Titan X") {
		th = layout.TitanXThresholds()
	}
	if strings.EqualFold(*thresholds, "calibrated") {
		th = layout.Calibrate(dev)
	}

	var net *network.Network
	var spec *netconfig.NetworkSpec
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec, err = netconfig.Parse(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		net, err = spec.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		nets, err := workloads.Networks()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var ok bool
		net, ok = nets[*networkName]
		if !ok {
			fmt.Fprintf(os.Stderr, "layoutplan: unknown network %q\n", *networkName)
			os.Exit(2)
		}
	}

	optimizer := core.NewOptimizer(core.Options{Thresholds: th})
	plan, err := optimizer.Plan(dev, net)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	est, err := plan.Estimate()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("network: %s (batch %d)\ndevice: %s\nthresholds: %v\n\n", net.Name, net.Batch, dev.Name, th)
	fmt.Printf("%-12s %-6s %-28s %-12s %s\n", "layer", "layout", "implementation", "time (us)", "transform")
	for i, pl := range plan.Layers {
		impl := describeImpl(pl)
		transform := "-"
		if pl.Transform != nil {
			transform = fmt.Sprintf("%v before layer (%.1f us)", pl.TransformMethod, est.PerLayer[i].TransformUS)
		}
		fmt.Printf("%-12s %-6s %-28s %-12.1f %s\n",
			pl.Layer.Name(), pl.Layout, impl, est.PerLayer[i].TimeUS, transform)
	}
	fmt.Printf("\ntotal: %.0f us (%.0f us, %.1f%% spent in %d layout transformations)\n",
		est.TotalUS, est.TransformUS, 100*est.TransformUS/est.TotalUS, plan.TransformCount())

	if *algSweep {
		printAlgSweep(dev, plan)
	}

	if spec != nil && *annotate {
		spec.Annotate(plan)
		data, err := spec.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nannotated configuration:\n%s\n", data)
	}
}

// printAlgSweep prints, for every convolution layer, the priced candidate
// rows of the compiler's joint sweep (layout.ConvAlgCandidates) and the
// decision CompileWithOptions would take (layout.JointConvChoice over the
// autotune heuristic's base algorithm).  Both come from internal/layout, so
// the printed numbers are exactly the compiler's.
func printAlgSweep(dev *gpusim.Device, plan *network.ExecutionPlan) {
	fmt.Printf("\njoint (layout, algorithm) sweep:\n")
	fmt.Printf("%-12s %-14s %-6s %12s %14s %s\n", "layer", "algorithm", "layout", "kernel (us)", "switch (us)", "")
	for _, pl := range plan.Layers {
		conv, ok := pl.Layer.(*layers.Conv)
		if !ok {
			continue
		}
		cfg := conv.Cfg
		base := autotune.SelectConvAlgorithm(cfg)
		choice := layout.JointConvChoice(dev, cfg, pl.Layout, base)
		for _, cand := range layout.ConvAlgCandidates(dev, cfg, pl.Layout) {
			mark := ""
			if cand.Alg == choice.Alg && cand.Layout == choice.Layout {
				mark = "<- chosen"
			} else if cand.Alg == base {
				mark = "(heuristic base)"
			}
			timing := fmt.Sprintf("%12.1f %14.1f", cand.TimeUS, cand.TransformUS)
			if cand.OOM {
				timing = fmt.Sprintf("%12s %14.1f", "OOM", cand.TransformUS)
			}
			fmt.Printf("%-12s %-14s %-6s %s %s\n", conv.Name(), cand.Alg, cand.Layout, timing, mark)
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
