// Example plannedtraining walks the memory-planned training pipeline of
// internal/runtime/train on a small network: CompileTraining lowers forward,
// softmax cross-entropy loss, backward and SGD update into one op list, the
// static memory plan covers the joint graph (with recompute-vs-store
// checkpointing as a planner decision), and the planned arena executor runs
// training steps bit-identically to the naive per-buffer executor.
package main

import (
	"fmt"
	"math"
	"os"

	"memcnn/internal/layers"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func main() {
	net, err := workloads.TinyNet()
	if err != nil {
		fail(err)
	}
	// The library's synthetic [-1,1) weights saturate the softmax; a
	// 1/sqrt(fan-in) rescale keeps the example's loss curve moving.
	for _, l := range net.Layers {
		if fc, ok := l.(*layers.FullyConnected); ok {
			w := fc.Weights()
			s := float32(1 / math.Sqrt(float64(fc.InDim)))
			for i := range w {
				w[i] *= s
			}
		}
	}

	store, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOff})
	if err != nil {
		fail(err)
	}
	ckpt, err := train.CompileTraining(net, train.Options{Checkpoint: train.CheckpointOn})
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s training program: %d ops over %d buffers\n\n", net.Name, len(ckpt.Ops), len(ckpt.Buffers))
	for i, op := range ckpt.Ops {
		extra := ""
		if op.Aux != memruntime.NoBuffer {
			extra = fmt.Sprintf("  aux b%d", op.Aux)
		}
		fmt.Printf("  %2d %-11s %-28s b%d -> b%d%s\n", i, op.Kind, op.Name, op.In, op.Out, extra)
	}
	fmt.Printf("\ntraining footprint: naive %d B, store-all plan %d B, checkpointed plan %d B (%d recompute ops)\n",
		store.NaiveBytes(), store.Mem.PeakBytes(), ckpt.Mem.PeakBytes(), ckpt.RecomputeOps)

	prog, err := train.CompileTraining(net, train.Options{SGD: train.SGD{LR: 0.005}})
	if err != nil {
		fail(err)
	}
	planned, err := train.NewExecutor(prog)
	if err != nil {
		fail(err)
	}
	naive, err := train.NewNaiveExecutor(prog, memruntime.CPUDevice{})
	if err != nil {
		fail(err)
	}

	images := tensor.Random(net.InputShape(), tensor.NCHW, 7)
	labels := []int{0, 2, 4, 1}
	fmt.Println("\ntraining on one fixed batch (planned arena executor):")
	for step := 0; step < 5; step++ {
		stats, err := planned.Step(images, labels)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  step %d: loss %.6f\n", step, stats.Loss)
	}

	// The naive executor runs the same op list over per-buffer storage; on
	// the (already updated) shared weights one more step must agree exactly.
	ns, err := naive.Step(images, labels)
	if err != nil {
		fail(err)
	}
	ps, err := planned.Step(images, labels)
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nnaive executor loss %.6f vs planned %.6f on consecutive steps of one weight trajectory\n", ns.Loss, ps.Loss)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
