// Command layerbench runs the single-layer experiments of the paper (the
// figures built from Table 1 layers) on the GPU performance model and prints
// the resulting tables.
//
// Usage:
//
//	layerbench -list
//	layerbench -experiment fig3
//	layerbench -experiment all -device titanx
//	layerbench -experiment fig14 -thresholds calibrated
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"memcnn/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("layerbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment to run (see -list) or 'all'")
		deviceName = fs.String("device", "titanblack", "GPU model: titanblack or titanx")
		thresholds = fs.String("thresholds", "paper", "layout thresholds: 'paper' or 'calibrated'")
		list       = fs.Bool("list", false, "list available experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	dev, err := bench.PickDevice(*deviceName)
	if err != nil {
		return fmt.Errorf("layerbench: %w", err)
	}
	th, err := bench.PickThresholds(*thresholds, dev)
	if err != nil {
		return fmt.Errorf("layerbench: %w", err)
	}

	experiments := bench.Experiments(dev, th)
	names := bench.ExperimentNames(dev, th)

	if *list {
		fmt.Fprintln(stdout, "available experiments:")
		for _, n := range names {
			fmt.Fprintln(stdout, "  "+n)
		}
		return nil
	}

	fmt.Fprintf(stdout, "device: %s\nlayout thresholds: %v\n\n", dev.Name, th)

	if !strings.EqualFold(*experiment, "all") {
		names = []string{*experiment}
	}
	for _, name := range names {
		fn, ok := experiments[name]
		if !ok {
			return fmt.Errorf("layerbench: unknown experiment %q (use -list)", name)
		}
		table, err := fn()
		if err != nil {
			return fmt.Errorf("layerbench: %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "== %s ==\n%s\n", name, table)
	}
	return nil
}
