package runtime_test

import (
	"context"
	"fmt"
	goruntime "runtime"
	"testing"

	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestProgramsBitInvariantAcrossWorkerCounts runs whole programs under
// GOMAXPROCS 1, 2, 3 and 8 and compares every activation buffer, not just the
// (saturating) softmax output, bit for bit with the one-worker run: TinyNet,
// LeNet and Cifar10 at batch 8, in NCHW and in CHWN.  Every kernel splits its work through
// internal/par, so this is the program-level form of "each plane runs on
// exactly one worker".  Scratch buffers are skipped: which lane's block an
// image went through is the one thing the budget may change.
func TestProgramsBitInvariantAcrossWorkerCounts(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	for _, build := range []func() (*network.Network, error){workloads.TinyNet, workloads.LeNet, workloads.Cifar10} {
		net, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			label := fmt.Sprintf("%s/%v", net.Name, lay)
			full, err := runtime.Compile(net, label, runtime.Uniform(net, lay), runtime.Options{Verify: true})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			prog, err := full.WithBatch(8)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			exec := runtime.NewExecutor(prog)
			in := tensor.Random(prog.InputShape(), tensor.NCHW, 17)
			var want *runtime.Instance
			for _, procs := range []int{1, 2, 3, 8} {
				goruntime.GOMAXPROCS(procs)
				// One allocation per buffer, so no activation is overlaid
				// by a later one before it is compared.
				inst, err := runtime.NewInstance(prog, true)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := tensor.ConvertInto(in, inst.Buffer(prog.Input)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := exec.ExecuteOn(context.Background(), inst); err != nil {
					t.Fatalf("%s, %d workers: %v", label, procs, err)
				}
				if want == nil {
					want = inst
					continue
				}
				for id, b := range prog.Buffers {
					if b.Scratch {
						continue
					}
					got, ref := inst.Buffer(runtime.BufferID(id)).Data, want.Buffer(runtime.BufferID(id)).Data
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("%s, %d workers: buffer %d element %d is %v, %v with one worker", label, procs, id, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}
