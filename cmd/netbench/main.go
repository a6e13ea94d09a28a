// Command netbench prints the paper's figures and the plans behind them, none
// of which needs execution.  Nothing it prints is a measurement: host-measured
// throughput, latency and footprints come from benchmark/run.sh, and the
// per-stage, per-replica and cache breakdowns from `memcnnserve -demo`.
//
// It prints one view, named by its only argument (`netbench list` names them):
//
//   - no argument is fig14, the paper's whole-network comparison (Fig. 14):
//     the five networks under every library policy;
//   - an experiment of the figure harness (the single-layer figures built from
//     Table 1 layers, the ablations, Figs. 14 and 15), or all of them;
//   - plan: per network, the data layout, implementation and time of every
//     layer the memory optimiser plans and where it inserts layout
//     transformations (Section IV.D), then each library policy's per-layer
//     breakdown;
//   - algs: per network, the same plan, then the decision record of the
//     program compiled from it: every layer's layout candidates with their
//     host prices, the one the compiler's selection pass chose marked
//     "<- chosen" with its margin and reason;
//   - programs: per network, the static report of the programs
//     internal/runtime compiles with per-layer layout selection on: op and
//     buffer counts, the arena peak against one allocation per buffer, the
//     layout and GEMM workspace of every convolution, and the planned
//     training footprints with and without recompute checkpointing.  Counts
//     and bytes are exact properties of the compiled programs.
//
// Every time and speedup is model-only: priced on the gpusim model of the GPU
// named by -device, never run on it; the decision record's are the host price
// list's estimates.  -network picks the network of the three
// per-network views (all five by default).
//
// Usage:
//
//	netbench                          # Fig. 14 on the Titan Black model
//	netbench list
//	netbench -device titanx -thresholds calibrated fig3
//	netbench -network AlexNet plan
//	netbench -network AlexNet algs
//	netbench programs                 # compiled programs, memory plans, training footprints
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"memcnn/internal/bench"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/workloads"
)

// perNetwork are the views -network applies to.
var perNetwork = []string{"plan", "algs", "programs"}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netbench", flag.ContinueOnError)
	var (
		networkName = fs.String("network", "all", "network of the plan, algs and programs views: LeNet, Cifar10, AlexNet, ZFNet, VGG, TinyNet or 'all'")
		deviceName  = fs.String("device", "titanblack", "GPU model every time is priced on (model-only): titanblack or titanx")
		thresholds  = fs.String("thresholds", "paper", "layout thresholds: 'paper' or 'calibrated'")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	view := "fig14"
	switch fs.NArg() {
	case 0:
	case 1:
		view = fs.Arg(0)
	default:
		return fmt.Errorf("netbench: one view at a time, flags before it; got %q", fs.Args())
	}
	dev, err := bench.PickDevice(*deviceName)
	if err != nil {
		return fmt.Errorf("netbench: %w", err)
	}
	th, err := bench.PickThresholds(*thresholds, dev)
	if err != nil {
		return fmt.Errorf("netbench: %w", err)
	}

	experiments := bench.Experiments(dev, th)
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	slices.Sort(names)
	var targets []*network.Network
	if slices.Contains(perNetwork, view) {
		if targets, err = networks(*networkName); err != nil {
			return err
		}
	} else {
		if _, ok := experiments[view]; !ok && view != "all" && view != "list" {
			return fmt.Errorf("netbench: unknown view %q (see netbench list)", view)
		}
		networkSet := false
		fs.Visit(func(f *flag.Flag) { networkSet = networkSet || f.Name == "network" })
		if networkSet {
			return fmt.Errorf("netbench: -network applies to the %s views, not to %s", strings.Join(perNetwork, ", "), view)
		}
	}

	if view == "list" {
		fmt.Fprintln(stdout, "experiments (or all):")
		for _, name := range names {
			fmt.Fprintln(stdout, "  "+name)
		}
		fmt.Fprintln(stdout, "per-network views (-network):")
		for _, name := range perNetwork {
			fmt.Fprintln(stdout, "  "+name)
		}
		return nil
	}
	fmt.Fprintf(stdout, "device: %s\nlayout thresholds: %v\n", dev.Name, th)
	if view == "programs" {
		fmt.Fprint(stdout, "static report, nothing is executed: counts and bytes are exact; each convolution's layout is the planner's, priced on the gpusim model of this device (model-only), then re-chosen by the compiler, priced on the host that runs it\n\n")
		return programsReport(stdout, dev, th, targets)
	}
	fmt.Fprint(stdout, "model-only: every time and speedup below is priced on the gpusim model of this device; nothing is executed or measured\n\n")
	if view == "plan" || view == "algs" {
		return planReport(stdout, dev, th, targets, view == "algs")
	}
	if view != "all" {
		names = []string{view}
	}
	for _, name := range names {
		table, err := experiments[name]()
		if err != nil {
			return fmt.Errorf("netbench: %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "== %s ==\n%s\n", name, table)
	}
	return nil
}

// networks resolves -network: one network by name, or the five of Fig. 14.
func networks(name string) ([]*network.Network, error) {
	if !strings.EqualFold(name, "all") {
		net, err := workloads.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("netbench: %w, or all", err)
		}
		return []*network.Network{net}, nil
	}
	nets, err := workloads.Networks()
	if err != nil {
		return nil, err
	}
	var targets []*network.Network
	for _, name := range workloads.NetworkOrder {
		targets = append(targets, nets[name])
	}
	return targets, nil
}

// planReport prints, per network, the memory optimiser's plan: every layer's
// layout, implementation and modeled time and the layout transformations
// inserted before it.  The plan is followed by each library policy's modeled
// per-layer breakdown, or with algs by the decision record of the program
// compiled from it.
func planReport(stdout io.Writer, dev *gpusim.Device, th layout.Thresholds, targets []*network.Network, algs bool) error {
	for _, net := range targets {
		plan, err := frameworks.Optimized(th).Plan(dev, net)
		if err != nil {
			return fmt.Errorf("netbench: planning %s: %w", net.Name, err)
		}
		est, err := plan.Estimate()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "== %s (batch %d, %d layers) ==\n", net.Name, net.Batch, len(net.Layers))
		fmt.Fprintf(stdout, "%-12s %-6s %-28s %-12s %s\n", "layer", "layout", "implementation", "time (us)", "transform")
		for i, pl := range plan.Layers {
			transform := "-"
			if pl.Transform != nil {
				transform = fmt.Sprintf("%v before layer (%.1f us)", pl.TransformMethod, est.PerLayer[i].TransformUS)
			}
			fmt.Fprintf(stdout, "%-12s %-6s %-28s %-12.1f %s\n",
				pl.Layer.Name(), pl.Layout, describeImpl(pl), est.PerLayer[i].TimeUS, transform)
		}
		fmt.Fprintf(stdout, "\ntotal: %.0f us (%.0f us, %.1f%% spent in %d layout transformations)\n\n",
			est.TotalUS, est.TransformUS, 100*est.TransformUS/est.TotalUS, plan.TransformCount())
		if algs {
			if err := printDecisions(stdout, plan); err != nil {
				return err
			}
		} else if err := printPlanners(stdout, dev, th, net); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// printPlanners prints every library policy's modeled total for one network
// and its per-layer breakdown (the Fig. 15 view for AlexNet).
func printPlanners(stdout io.Writer, dev *gpusim.Device, th layout.Thresholds, net *network.Network) error {
	priced, err := bench.PricePolicies(dev, net, frameworks.All(th))
	if err != nil {
		return fmt.Errorf("netbench: %w", err)
	}
	for _, p := range priced {
		est := p.Estimate
		fmt.Fprintf(stdout, "%-14s %10.0f us modeled  (%d layout transforms, %.0f us modeled in transforms)\n",
			est.PlannerName, est.TotalUS, p.Plan.TransformCount(), est.TransformUS)
		for _, lt := range est.PerLayer {
			fmt.Fprintf(stdout, "    %-12s %-5s %10.1f us modeled", lt.Name, lt.Layout, lt.TimeUS)
			if lt.TransformUS > 0 {
				fmt.Fprintf(stdout, "  (+%.1f us modeled transform)", lt.TransformUS)
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

// printDecisions compiles the plan with selection on and prints its decision
// record: per layer, every layout the host price list prices with its price,
// and on the winner's row its margin and reason.  The plan's
// layouts are only the selection's tie-break, so the marks may sit in other
// layouts than the plan above.
func printDecisions(stdout io.Writer, plan *network.ExecutionPlan) error {
	prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
	if err != nil {
		return fmt.Errorf("netbench: compiling %s: %w", plan.Network.Name, err)
	}
	fmt.Fprintln(stdout, "decision record of the program compiled from this plan: host-priced estimates (internal/autotune), not modeled, not measured")
	fmt.Fprintf(stdout, "%-12s %-6s %10s\n", "layer", "layout", "host (us)")
	for _, d := range prog.Decisions {
		for _, c := range d.Candidates {
			mark := ""
			if c.Layout == d.Chosen {
				mark = "  <- chosen: " + d.Reason
			}
			fmt.Fprintf(stdout, "%-12s %-6s %10.1f%s\n", d.Layer, c.Layout, c.Seconds*1e6, mark)
		}
	}
	return nil
}

// describeImpl summarises the implementation a planned layer will use.
func describeImpl(pl network.PlannedLayer) string {
	switch pl.Layer.(type) {
	case *layers.Conv:
		return "conv: " + pl.Options.Conv.String()
	case *layers.Pool:
		s := "pool: " + pl.Options.Pool.String()
		if pl.Options.Pool == gpusim.PoolOptimized {
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

// programsReport compiles each target network from the optimised planner's
// plan with layout selection on and prints, per network, the op and buffer
// counts, the static memory plan and every convolution's layout and
// workspace, then the planned training footprints.  It compiles and plans
// only; no program runs.
func programsReport(stdout io.Writer, dev *gpusim.Device, th layout.Thresholds, targets []*network.Network) error {
	planner := frameworks.Optimized(th)
	fmt.Fprintf(stdout, "%-8s %9s %8s %12s %12s %12s %7s\n", "network", "ops", "buffers", "peak", "bound", "naive", "saved")
	for _, net := range targets {
		plan, err := planner.Plan(dev, net)
		if err != nil {
			return fmt.Errorf("netbench: planning %s: %w", net.Name, err)
		}
		prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
		if err != nil {
			return fmt.Errorf("netbench: compiling %s: %w", net.Name, err)
		}
		fmt.Fprintf(stdout, "%-8s %9d %8d %9.2f MiB %9.2f MiB %9.2f MiB %6.0f%%\n", net.Name, len(prog.Ops), len(prog.Buffers),
			mib(prog.Mem.PeakBytes()), mib(prog.Mem.BoundBytes()), mib(prog.NaiveBytes()), 100*prog.Savings())
		for _, ch := range prog.ConvChoices() {
			fmt.Fprintf(stdout, "         conv %-12s %-5s (workspace %.2f MiB)\n", ch.Layer, ch.Layout, mib(ch.WorkspaceBytes))
		}
	}

	// The training counterpart of the table above: the full training step
	// (forward + loss + backward + SGD) planned keeping every activation
	// (store) and dropping and recomputing the cheap ones (ckpt), both against
	// one allocation per buffer of the store-all program (naive).  ops and
	// recompute count the checkpointed program.
	fmt.Fprintf(stdout, "\ntraining memory (forward + loss + backward + SGD):\n")
	fmt.Fprintf(stdout, "%-8s %6s %11s %11s %11s %11s %11s %10s %12s %11s\n",
		"network", "ops", "naive", "store", "bound", "ckpt", "bound", "recompute", "saved(store)", "saved(ckpt)")
	for _, net := range targets {
		store, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOff})
		if err != nil {
			return fmt.Errorf("netbench: training %s: %w", net.Name, err)
		}
		ckpt, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOn})
		if err != nil {
			return fmt.Errorf("netbench: training %s: %w", net.Name, err)
		}
		naive, storePeak, ckptPeak := store.NaiveBytes(), store.Mem.PeakBytes(), ckpt.Mem.PeakBytes()
		fmt.Fprintf(stdout, "%-8s %6d %7.2f MiB %7.2f MiB %7.2f MiB %7.2f MiB %7.2f MiB %10d %11.0f%% %10.0f%%\n", net.Name, len(ckpt.Ops),
			mib(naive), mib(storePeak), mib(store.Mem.BoundBytes()), mib(ckptPeak), mib(ckpt.Mem.BoundBytes()), ckpt.RecomputeOps,
			100*(1-float64(storePeak)/float64(naive)), 100*(1-float64(ckptPeak)/float64(naive)))
	}
	return nil
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
