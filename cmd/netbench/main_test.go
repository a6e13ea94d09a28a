package main

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"memcnn/internal/bench"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/workloads"
)

// TestRuntimeReportDescribesTheCompiledProgram checks that the printed
// `netbench -network LeNet programs` report describes the programs the
// compiler produces for the same plan and options: op and buffer counts, the
// arena peak and its lower bound, one row per convolution with its (layout,
// algorithm, workspace), and the planned training footprints with theirs.
func TestRuntimeReportDescribesTheCompiledProgram(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-network", "LeNet", "programs"}, &out); err != nil {
		t.Fatal(err)
	}
	var netRows, convRows [][]string
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == "LeNet":
			netRows = append(netRows, f)
		case len(f) > 0 && f[0] == "conv":
			convRows = append(convRows, f[1:])
		}
	}
	if len(netRows) != 2 {
		t.Fatalf("report has %d LeNet rows, want the inference row and the training row:\n%s", len(netRows), &out)
	}

	net, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	mib := func(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
	want := []string{fmt.Sprint(len(prog.Ops)), fmt.Sprint(len(prog.Buffers)), mib(prog.Mem.PeakBytes()), "MiB", mib(prog.Mem.BoundBytes()), "MiB", mib(prog.NaiveBytes()), "MiB"}
	if got := netRows[0][1:9]; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("inference row reads %q; the program has ops, buffers, peak, bound, naive = %q", got, want)
	}

	choices := prog.ConvChoices()
	if len(convRows) != len(choices) {
		t.Fatalf("report lists %d convolutions, the program has %d", len(convRows), len(choices))
	}
	for i, ch := range choices {
		want := []string{ch.Layer, ch.Layout.String(), ch.Alg.String()}
		if ch.WorkspaceBytes > 0 {
			want = append(want, "(workspace", mib(ch.WorkspaceBytes), "MiB)")
		}
		if strings.Join(convRows[i], " ") != strings.Join(want, " ") {
			t.Errorf("convolution %d: report %q, program %q", i, convRows[i], want)
		}
	}

	store, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOff})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOn})
	if err != nil {
		t.Fatal(err)
	}
	want = []string{fmt.Sprint(len(ckpt.Ops)), mib(store.NaiveBytes()), "MiB", mib(store.Mem.PeakBytes()), "MiB", mib(store.Mem.BoundBytes()), "MiB",
		mib(ckpt.Mem.PeakBytes()), "MiB", mib(ckpt.Mem.BoundBytes()), "MiB", fmt.Sprint(ckpt.RecomputeOps)}
	if got := netRows[1][1:13]; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("training row reads %q; the programs have ops, naive, store, its bound, ckpt, its bound, recompute = %q", got, want)
	}
}

// TestAlgsMarksTheCompiledChoice checks that the tool and the compiler agree:
// `netbench algs` marks one row per convolution "<- chosen", and the marks
// are, layer for layer, the (layout, algorithm) of the program
// CompileWithOptions lowers from the same plan with algorithm selection on.
// The priced columns are the GPU model's, and the header says so.
func TestAlgsMarksTheCompiledChoice(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"LeNet", "Cifar10", "AlexNet"} {
		var out bytes.Buffer
		if err := run([]string{"-network", name, "algs"}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), "times modeled on GTX Titan Black (Kepler GK110B), model-only") {
			t.Errorf("%s: the sweep's header does not label its columns model-only:\n%s", name, &out)
		}
		var got []string
		for _, line := range strings.Split(out.String(), "\n") {
			if !strings.Contains(line, "<- chosen") {
				continue
			}
			f := strings.Fields(line)
			lay := f[2] // the row's own layout, unless the mark names the plan's
			if !strings.HasSuffix(line, "<- chosen") {
				lay = f[len(f)-1]
			}
			got = append(got, fmt.Sprintf("%s %s %s", f[0], f[1], lay))
		}

		net := nets[name]
		plan, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var want []string
		for i, ch := range prog.Choices() {
			if _, ok := net.Layers[i].(*layers.Conv); ok {
				want = append(want, fmt.Sprintf("%s %v %v", net.Layers[i].Name(), ch.Alg, ch.Layout))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: algs marks %q as chosen, the compiled program runs %q", name, got, want)
		}
	}
}

// TestPlainRunPrintsFigure14 pins the default view to the harness table of
// `netbench fig14`, labelled model-only.
func TestPlainRunPrintsFigure14(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	_, table, err := bench.Figure14(gpusim.TitanBlack(), layout.TitanBlackThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "== fig14 ==\n"+table.String()) {
		t.Errorf("plain netbench does not print bench.Figure14's table:\n%s", &out)
	}
	if !strings.Contains(out.String(), "model-only") {
		t.Errorf("the modeled view carries no model-only label:\n%s", &out)
	}
}

// TestListNamesEveryExperiment: `netbench list` names every experiment of the
// harness and the three per-network views.
func TestListNamesEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"list"}, &out); err != nil {
		t.Fatal(err)
	}
	for name := range bench.Experiments(gpusim.TitanBlack(), layout.TitanBlackThresholds()) {
		if !strings.Contains(out.String(), "  "+name+"\n") {
			t.Errorf("list does not name experiment %q:\n%s", name, &out)
		}
	}
	for _, name := range []string{"plan", "algs", "programs"} {
		if !strings.Contains(out.String(), "  "+name+"\n") {
			t.Errorf("list does not name view %q:\n%s", name, &out)
		}
	}
}

// TestRemovedFlagsAreRejected: the execution modes moved to benchmark/ and
// memcnnserve, and the views that were flags are arguments; asking for one
// by its old flag is a flag-parse error, not a silently ignored option.
func TestRemovedFlagsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-exec"}, {"-select=false"}, {"-probe"}, {"-devices", "2"}, {"-replicas", "2"},
		{"-replica-devices", "titanx"}, {"-chaos", "42"}, {"-train"}, {"-json", "out.json"}, {"-trace", "out.json"},
		{"-experiment", "fig3"}, {"-list"}, {"-algs"}, {"-detail"}, {"-runtime"},
	} {
		err := run(append(append([]string{"-network", "LeNet"}, args...), "programs"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("netbench %v: got %v, want a flag-parse error", args, err)
		}
	}
}

// TestUnknownDeviceAndThresholdsFailClosed: a mistyped -device, -thresholds
// or -network is an error naming the accepted values, not a report priced on
// the default.
func TestUnknownDeviceAndThresholdsFailClosed(t *testing.T) {
	for _, tc := range []struct{ args, want []string }{
		{[]string{"-device", "titanz"}, []string{"titanz", "titanblack", "titanx"}},
		{[]string{"-thresholds", "papr", "programs"}, []string{"papr", "paper", "calibrated"}},
		{[]string{"-thresholds", "papr", "list"}, []string{"papr", "paper", "calibrated"}},
		{[]string{"-network", "LeNet5", "plan"}, []string{"LeNet5", "LeNet", "VGG"}},
	} {
		expectFailure(t, tc.args, tc.want)
	}
}

// TestPlanViewsFailClosedOnUnknownDeviceAndThresholds: the plan and algs
// views (once cmd/layoutplan) refuse a mistyped -device or -thresholds with
// an error naming the accepted values, not a plan priced on the default.
func TestPlanViewsFailClosedOnUnknownDeviceAndThresholds(t *testing.T) {
	for _, view := range []string{"plan", "algs"} {
		expectFailure(t, []string{"-device", "titanz", "-network", "LeNet", view}, []string{"titanz", "titanblack", "titanx"})
		expectFailure(t, []string{"-thresholds", "papr", "-network", "LeNet", view}, []string{"papr", "paper", "calibrated"})
	}
}

// TestBadArgumentsAreErrors: a view `netbench list` does not name, more than
// one view, or -network with a view that is not per-network comes back from
// run as an error naming the problem, with nothing printed.
func TestBadArgumentsAreErrors(t *testing.T) {
	for _, tc := range []struct{ args, want []string }{
		{[]string{"fig99"}, []string{"fig99", "netbench list"}},
		{[]string{"-network", "LeNet", "programs", "plan"}, []string{"one view", "programs", "plan"}},
		{[]string{"fig3", "-network", "LeNet"}, []string{"one view", "fig3", "-network"}},
		{[]string{"-network", "LeNet"}, []string{"-network", "fig14"}},
		{[]string{"-network", "LeNet", "fig3"}, []string{"-network", "fig3"}},
		{[]string{"-network", "all", "list"}, []string{"-network", "list"}},
	} {
		expectFailure(t, tc.args, tc.want)
	}
}

func expectFailure(t *testing.T, args, want []string) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	if err == nil {
		t.Errorf("netbench %v succeeded:\n%s", args, &out)
		return
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("netbench %v: error %q does not name %q", args, err, w)
		}
	}
	if out.Len() != 0 {
		t.Errorf("netbench %v printed a report before failing:\n%s", args, &out)
	}
}
