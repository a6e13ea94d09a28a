package train

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"memcnn/internal/network"
	"memcnn/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/programs.golden from what the code produces now")

const programsGolden = "testdata/programs.golden"

// trainingDump lists everything about a compiled training step that
// execution and the memory plan depend on: the planner name, the staged
// buffers, every op's kind, name, operands, algorithm and learning rate,
// every buffer's shape, layout, alias and scratch flag, the arena offsets and
// the peak.
func trainingDump(p *Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "planner %s input=%d output=%d extra=%v labels=%d probs=%d\n",
		p.PlannerName, p.Input, p.Output, p.ExtraInputs, p.Labels, p.Probs)
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "op %d %v %q in=%d out=%d aux=%d scratch=%d alg=%v lr=%v\n",
			i, op.Kind, op.Name, op.In, op.Out, op.Aux, op.Scratch, op.Alg, op.LR)
	}
	for _, buf := range p.Buffers {
		fmt.Fprintf(&b, "buffer %d %v %v alias=%d scratch=%t\n", buf.ID, buf.Shape, buf.Layout, buf.AliasOf, buf.Scratch)
	}
	fmt.Fprintf(&b, "offsets %v\npeak %d\n", p.Mem.Offsets, p.Mem.PeakBytes())
	return b.String()
}

// TestTrainingProgramsAreStable pins the training compiler's output: TinyNet
// and the five workload networks at full batch under each checkpoint policy.
// Nothing executes.  The golden file was recorded while training still had a
// forward lowering of its own; lowering the forward pass through the
// inference builder must leave it untouched (go test -run
// TrainingProgramsAreStable ./internal/runtime/train/ -update rewrites it
// when a change is meant to alter programs).
func TestTrainingProgramsAreStable(t *testing.T) {
	ctors := []func() (*network.Network, error){workloads.TinyNet}
	for _, name := range workloads.NetworkOrder {
		ctors = append(ctors, constructors()[name])
	}
	var lines []string
	dumps := make(map[string]string)
	for _, ctor := range ctors {
		for _, ck := range []Checkpoint{CheckpointOff, CheckpointOn, CheckpointAuto} {
			net, err := ctor()
			if err != nil {
				t.Fatal(err)
			}
			p, err := CompileTraining(net, Options{Checkpoint: ck})
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name, ck, err)
			}
			config := fmt.Sprintf("%s %v", net.Name, ck)
			dumps[config] = trainingDump(p)
			lines = append(lines, fmt.Sprintf("%s ops=%d buffers=%d peak=%d recompute=%d store=%d sha256=%x",
				config, len(p.Ops), len(p.Buffers), p.Mem.PeakBytes(), p.RecomputeOps, p.StorePeakBytes,
				sha256.Sum256([]byte(dumps[config]))))
		}
	}
	if *updateGolden {
		if err := os.WriteFile(programsGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(programsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("%d configurations compiled, %s holds %d", len(lines), programsGolden, len(want))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Errorf("%s changed:\n got %s\nwant %s\n%s", programsGolden, line, want[i], dumps[line[:strings.Index(line, " ops=")]])
		}
	}
}
