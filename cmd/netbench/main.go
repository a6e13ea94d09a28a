// Command netbench prints the two whole-network views that need no execution.
// Nothing it prints is a measurement: host-measured throughput, latency and
// footprints come from benchmark/run.sh, and the per-stage, per-replica and
// chaos breakdowns from `memcnnserve -demo` and examples/.
//
// Without -runtime it is the paper's whole-network comparison (Fig. 14): the
// five networks under every library policy, and with -detail the per-layer
// breakdown of each planner (the Fig. 15 view for AlexNet).  Every time and
// speedup in this view is model-only: priced on the gpusim model of the GPU
// named by -device, never run on it.
//
// With -runtime it is the static report of the programs internal/runtime
// compiles for the same networks, with per-layer convolution algorithm
// selection on: op and buffer counts, the arena peak against one
// allocation per buffer, the layout, algorithm and workspace of every
// convolution, and the planned training footprints with and without
// recompute checkpointing.  Counts and bytes are exact properties of the
// compiled programs; the layouts are the planner's, priced on the same gpusim
// model, and the algorithms the compiler's, priced on the host.
//
// Usage:
//
//	netbench                         # Fig. 14 on the Titan Black model
//	netbench -network AlexNet -detail
//	netbench -device titanx -thresholds calibrated
//	netbench -runtime                # compiled programs, memory plans, training footprints
//	netbench -runtime -network LeNet
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memcnn/internal/bench"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("netbench", flag.ContinueOnError)
	var (
		networkName = fs.String("network", "all", "network to report: LeNet, Cifar10, AlexNet, ZFNet, VGG, TinyNet or 'all'")
		deviceName  = fs.String("device", "titanblack", "GPU model every time is priced on (model-only): titanblack or titanx")
		thresholds  = fs.String("thresholds", "paper", "layout thresholds: 'paper' or 'calibrated'")
		detail      = fs.Bool("detail", false, "print the modeled per-layer breakdown for each planner")
		runtimeView = fs.Bool("runtime", false, "print the static report of the compiled programs instead (memory plans, convolution choices, training footprints; nothing is executed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dev, err := bench.PickDevice(*deviceName)
	if err != nil {
		return fmt.Errorf("netbench: %w", err)
	}
	th, err := bench.PickThresholds(*thresholds, dev)
	if err != nil {
		return fmt.Errorf("netbench: %w", err)
	}
	all := strings.EqualFold(*networkName, "all")
	var targets []*network.Network
	if all {
		nets, err := workloads.Networks()
		if err != nil {
			return err
		}
		for _, name := range workloads.NetworkOrder {
			targets = append(targets, nets[name])
		}
	} else {
		net, err := workloads.ByName(*networkName)
		if err != nil {
			return fmt.Errorf("netbench: %w, or all", err)
		}
		targets = []*network.Network{net}
	}
	fmt.Fprintf(stdout, "device: %s\nlayout thresholds: %v\n", dev.Name, th)

	if *runtimeView {
		fmt.Fprint(stdout, "static report, nothing is executed: counts and bytes are exact; each convolution's layout is the planner's, priced on the gpusim model of this device (model-only), and its algorithm the compiler's, priced on the host that runs it\n\n")
		return runtimeReport(stdout, dev, th, targets)
	}

	fmt.Fprint(stdout, "model-only: every time and speedup below is priced on the gpusim model of this device; nothing is executed or measured\n\n")
	if all {
		_, table, err := bench.Figure14(dev, th)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, table)
		if !*detail {
			return nil
		}
	}
	for _, net := range targets {
		fmt.Fprintf(stdout, "== %s (batch %d, %d layers) ==\n", net.Name, net.Batch, len(net.Layers))
		for _, planner := range frameworks.All(th) {
			plan, err := planner.Plan(dev, net)
			if err != nil {
				return fmt.Errorf("netbench: %s on %s: %w", planner.Name(), net.Name, err)
			}
			est, err := plan.Estimate()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-14s %10.0f us modeled  (%d layout transforms, %.0f us modeled in transforms)\n",
				planner.Name(), est.TotalUS, plan.TransformCount(), est.TransformUS)
			if *detail {
				for _, lt := range est.PerLayer {
					fmt.Fprintf(stdout, "    %-12s %-5s %10.1f us modeled", lt.Name, lt.Layout, lt.TimeUS)
					if lt.TransformUS > 0 {
						fmt.Fprintf(stdout, "  (+%.1f us modeled transform)", lt.TransformUS)
					}
					fmt.Fprintln(stdout)
				}
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// runtimeReport compiles each target network from the optimised planner's
// plan with algorithm selection on and prints, per network, the op and buffer
// counts, the static memory plan and every convolution's (layout, algorithm,
// workspace), then the planned training footprints.  It compiles and plans
// only; no program runs.
func runtimeReport(stdout io.Writer, dev *gpusim.Device, th layout.Thresholds, targets []*network.Network) error {
	planner := frameworks.Optimized(th)
	fmt.Fprintf(stdout, "%-8s %9s %8s %12s %12s %7s\n", "network", "ops", "buffers", "peak", "naive", "saved")
	for _, net := range targets {
		plan, err := planner.Plan(dev, net)
		if err != nil {
			return fmt.Errorf("netbench: planning %s: %w", net.Name, err)
		}
		prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
		if err != nil {
			return fmt.Errorf("netbench: compiling %s: %w", net.Name, err)
		}
		fmt.Fprintf(stdout, "%-8s %9d %8d %9.2f MiB %9.2f MiB %6.0f%%\n",
			net.Name, len(prog.Ops), len(prog.Buffers), mib(prog.Mem.PeakBytes()), mib(prog.NaiveBytes()), 100*prog.Savings())
		for _, ch := range prog.ConvChoices() {
			line := fmt.Sprintf("         conv %-12s %-5s %s", ch.Layer, ch.Layout, ch.Alg)
			if ch.WorkspaceBytes > 0 {
				line += fmt.Sprintf(" (workspace %.2f MiB)", mib(ch.WorkspaceBytes))
			}
			fmt.Fprintln(stdout, line)
		}
	}

	// The training counterpart of the table above: the full training step
	// (forward + loss + backward + SGD) planned keeping every activation
	// (store) and dropping and recomputing the cheap ones (ckpt), both against
	// one allocation per buffer of the store-all program (naive).  ops and
	// recompute count the checkpointed program.
	fmt.Fprintf(stdout, "\ntraining memory (forward + loss + backward + SGD):\n")
	fmt.Fprintf(stdout, "%-8s %6s %11s %11s %11s %10s %12s %11s\n",
		"network", "ops", "naive", "store", "ckpt", "recompute", "saved(store)", "saved(ckpt)")
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
		fmt.Fprintf(stdout, "%-8s %6d %7.2f MiB %7.2f MiB %7.2f MiB %10d %11.0f%% %10.0f%%\n",
			net.Name, len(ckpt.Ops), mib(naive), mib(storePeak), mib(ckptPeak), ckpt.RecomputeOps,
			100*(1-float64(storePeak)/float64(naive)), 100*(1-float64(ckptPeak)/float64(naive)))
	}
	return nil
}

func mib(bytes int64) float64 { return float64(bytes) / (1 << 20) }
