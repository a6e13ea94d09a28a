package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/workloads"
)

// TestRuntimeJSONReportsTheCompiledProgram checks that the plan-only record
// `netbench -runtime -json` writes describes the program the compiler
// produces for the same plan and options: op and buffer counts, the arena
// peak and the per-convolution (layout, algorithm, workspace) choices.
func TestRuntimeJSONReportsTheCompiledProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-runtime", "-network", "LeNet", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var reports []netReport
	if err := json.Unmarshal(data, &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].Network != "LeNet" {
		t.Fatalf("got %d report(s) %+v, want one for LeNet", len(reports), reports)
	}
	rep := reports[0]

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
	if rep.Ops != len(prog.Ops) || rep.Buffers != len(prog.Buffers) || rep.PeakBytes != prog.Mem.PeakBytes() {
		t.Errorf("record has %d ops, %d buffers, peak %d; the program has %d, %d, %d",
			rep.Ops, rep.Buffers, rep.PeakBytes, len(prog.Ops), len(prog.Buffers), prog.Mem.PeakBytes())
	}
	choices := prog.ConvChoices()
	if len(rep.ConvAlgorithms) != len(choices) {
		t.Fatalf("record lists %d convolutions, the program has %d", len(rep.ConvAlgorithms), len(choices))
	}
	for i, ch := range choices {
		want := convChoiceJSON{Layer: ch.Layer, Algorithm: ch.Alg.String(), Layout: ch.Layout.String(), WorkspaceBytes: ch.WorkspaceBytes}
		if rep.ConvAlgorithms[i] != want {
			t.Errorf("convolution %d: record %+v, program %+v", i, rep.ConvAlgorithms[i], want)
		}
	}
}
