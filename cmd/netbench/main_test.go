package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"memcnn/internal/bench"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/workloads"
)

// TestRuntimeReportDescribesTheCompiledProgram checks that the printed
// `netbench -runtime` report for LeNet describes the programs the compiler
// produces for the same plan and options: op and buffer counts, the arena
// peak, one row per convolution with its (layout, algorithm, workspace), and
// the planned training footprints.
func TestRuntimeReportDescribesTheCompiledProgram(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-runtime", "-network", "LeNet"}, &out); err != nil {
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
	want := []string{fmt.Sprint(len(prog.Ops)), fmt.Sprint(len(prog.Buffers)), mib(prog.Mem.PeakBytes()), "MiB", mib(prog.NaiveBytes()), "MiB"}
	if got := netRows[0][1:7]; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("inference row reads %q; the program has ops, buffers, peak, naive = %q", got, want)
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
	want = []string{fmt.Sprint(len(ckpt.Ops)), mib(store.NaiveBytes()), "MiB", mib(store.Mem.PeakBytes()), "MiB", mib(ckpt.Mem.PeakBytes()), "MiB", fmt.Sprint(ckpt.RecomputeOps)}
	if got := netRows[1][1:9]; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("training row reads %q; the programs have ops, naive, store, ckpt, recompute = %q", got, want)
	}
}

// TestPlainRunPrintsFigure14 pins the default view to the harness table that
// `layerbench -experiment fig14` prints too.
func TestPlainRunPrintsFigure14(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	_, table, err := bench.Figure14(gpusim.TitanBlack(), layout.TitanBlackThresholds())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), table.String()) {
		t.Errorf("plain netbench does not print bench.Figure14's table:\n%s", &out)
	}
	if !strings.Contains(out.String(), "model-only") {
		t.Errorf("the modeled view carries no model-only label:\n%s", &out)
	}
}

// TestRemovedFlagsAreRejected: the execution modes moved to benchmark/ and
// memcnnserve; asking netbench for one is a flag-parse error, not a silently
// ignored option.
func TestRemovedFlagsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-exec"}, {"-select=false"}, {"-probe"}, {"-devices", "2"}, {"-replicas", "2"},
		{"-replica-devices", "titanx"}, {"-chaos", "42"}, {"-train"}, {"-json", "out.json"}, {"-trace", "out.json"},
	} {
		err := run(append([]string{"-runtime", "-network", "LeNet"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("netbench -runtime %v: got %v, want a flag-parse error", args, err)
		}
	}
}

// TestUnknownDeviceAndThresholdsFailClosed: a mistyped -device or -thresholds
// is an error naming the accepted values, not a report priced on the default.
func TestUnknownDeviceAndThresholdsFailClosed(t *testing.T) {
	for _, tc := range []struct{ args, want []string }{
		{[]string{"-device", "titanz"}, []string{"titanz", "titanblack", "titanx"}},
		{[]string{"-runtime", "-thresholds", "papr"}, []string{"papr", "paper", "calibrated"}},
		{[]string{"-network", "LeNet5"}, []string{"LeNet5", "LeNet", "VGG"}},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("netbench %v succeeded:\n%s", tc.args, &out)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("netbench %v: error %q does not name %q", tc.args, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("netbench %v printed a report before failing:\n%s", tc.args, &out)
		}
	}
}
