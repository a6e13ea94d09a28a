package runtime_test

import (
	"fmt"
	"testing"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// checkArena holds one program's plan between its two limits: never under
// the liveness lower bound, never over the definition-order placement the
// planner used to return.  It logs how far above the bound the plan is.
func checkArena(t *testing.T, name string, p *runtime.Program) {
	t.Helper()
	m := p.Mem
	if err := m.Validate(p); err != nil {
		t.Errorf("%s: %v", name, err)
	}
	if m.ArenaElems < m.BoundElems {
		t.Errorf("%s: arena %d elems under its lower bound %d", name, m.ArenaElems, m.BoundElems)
	}
	if old := runtime.DefinitionOrderArena(p); m.ArenaElems > old {
		t.Errorf("%s: arena %d elems over the definition-order placement's %d", name, m.ArenaElems, old)
	}
	t.Logf("%-44s %v, %.3fx the bound", name, m, float64(m.ArenaElems)/float64(m.BoundElems))
}

// TestPlannerNeverRegresses plans the five networks in each of the two
// fixed layouts with selection and in-place on and off, and LeNet, Cifar10
// and AlexNet training under every checkpoint policy.
func TestPlannerNeverRegresses(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.NetworkOrder {
		net := nets[name]
		for _, lay := range tensor.Layouts {
			for _, sel := range []bool{false, true} {
				for _, noInPlace := range []bool{false, true} {
					config := fmt.Sprintf("%s fixed-%v select=%t noinplace=%t", name, lay, sel, noInPlace)
					compile := compileFixedLayout
					if noInPlace {
						compile = compileFixedOutOfPlace
					}
					p, err := compile(net, lay, runtime.Options{ConvAlgorithms: sel})
					if err != nil {
						t.Fatalf("%s: %v", config, err)
					}
					checkArena(t, config, p)
				}
			}
		}
	}
	for _, name := range []string{"LeNet", "Cifar10", "AlexNet"} {
		for _, c := range []train.Checkpoint{train.CheckpointAuto, train.CheckpointOff, train.CheckpointOn} {
			tp, err := train.CompileTraining(nets[name], train.Options{Checkpoint: c})
			if err != nil {
				t.Fatalf("%s training %v: %v", name, c, err)
			}
			checkArena(t, fmt.Sprintf("%s training %v", name, c), tp.Program)
		}
	}
}

// TestBenchmarkProgramsPlanAtTheBound compiles the three inference programs
// the repository benchmark runs, the way it compiles them, and holds each
// arena to exactly its liveness lower bound.
func TestBenchmarkProgramsPlanAtTheBound(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		batch int
	}{{"LeNet", 128}, {"AlexNet", 4}, {"Cifar10", 8}} {
		net, err := nets[w.name].WithBatch(w.batch)
		if err != nil {
			t.Fatal(err)
		}
		p := compileLikeTheBenchmark(t, net)
		checkArena(t, fmt.Sprintf("%s@%d", w.name, w.batch), p)
		if p.Mem.ArenaElems != p.Mem.BoundElems {
			t.Errorf("%s@%d: arena %v, want it at the bound", w.name, w.batch, p.Mem)
		}
	}
}

func compileLikeTheBenchmark(t *testing.T, net *network.Network) *runtime.Program {
	t.Helper()
	plan, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), net)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runtime.CompileWithOptions(plan, runtime.Options{ConvAlgorithms: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
