package train

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/obs"
	"memcnn/internal/runtime"
	_ "memcnn/internal/runtime/verify" // Options.Verify
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// fullRun gates the heavy whole-net executions (AlexNet, ZFNet, VGG training
// steps) behind the same env switch the golden tests use.
func fullRun() bool { return os.Getenv("MEMCNN_GOLDEN_FULL") != "" }

func constructors() map[string]func() (*network.Network, error) {
	return map[string]func() (*network.Network, error){
		"LeNet":   workloads.LeNet,
		"Cifar10": workloads.Cifar10,
		"AlexNet": workloads.AlexNet,
		"ZFNet":   workloads.ZFNet,
		"VGG":     workloads.VGG,
	}
}

// batch returns a deterministic labelled batch for a compiled program.
func batch(p *Program, seed uint64) (*tensor.Tensor, []int) {
	images := tensor.Random(p.InputShape(), tensor.NCHW, seed)
	labels := make([]int, p.Batch)
	for i := range labels {
		labels[i] = int((seed + uint64(i)*2654435761) % uint64(p.Classes))
	}
	return images, labels
}

// weightChecksum walks the network's trainable layers and folds every
// parameter bit into one sum, so two networks agree iff their weights are
// bit-identical.
func weightChecksum(net *network.Network) uint64 {
	var sum uint64
	fold := func(vals []float32) {
		for _, v := range vals {
			sum = sum*1099511628211 + uint64(math.Float32bits(v))
		}
	}
	for _, l := range net.Layers {
		switch tl := l.(type) {
		case *layers.Conv:
			fold(tl.Filters().Data)
		case *layers.FullyConnected:
			fold(tl.Weights())
		}
	}
	return sum
}

func TestCompileAllWorkloadsPlansValidate(t *testing.T) {
	for name, ctor := range constructors() {
		for _, ck := range []Checkpoint{CheckpointOff, CheckpointOn} {
			net, err := ctor()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := CompileTraining(net, Options{Checkpoint: ck})
			if err != nil {
				t.Fatalf("%s/%v: compile: %v", name, ck, err)
			}
			if err := p.Mem.Validate(p.Program); err != nil {
				t.Errorf("%s/%v: memory plan invalid: %v", name, ck, err)
			}
			if ck == CheckpointOn && p.RecomputeOps == 0 {
				t.Errorf("%s: checkpointing emitted no recompute ops", name)
			}
			if p.Mem.PeakBytes() >= p.NaiveBytes() {
				t.Errorf("%s/%v: planned peak %d not below naive %d", name, ck, p.Mem.PeakBytes(), p.NaiveBytes())
			}
		}
	}
}

// lenet16 compiles LeNet's training step at batch 16, the benchmark's
// training workload.
func lenet16(t *testing.T) *Program {
	t.Helper()
	base, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := base.WithBatch(16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTraining(net, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTrainingRunsTheSelectedAlgorithm checks that every op of a convolution
// but its update records GEMM, the kernel its forward and both its gradients
// run, on LeNet@16 and TinyNet@4.  LeNet's conv2 has a forward, a
// backward-data and a grad-filter op, conv1 (its input needs no gradient) no
// backward-data op; LeNet drops only pooling and ReLU outputs, so no
// convolution is recomputed.
func TestTrainingRunsTheSelectedAlgorithm(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	tinyProg, err := CompileTraining(tiny, Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	lenetKinds := map[string][]runtime.OpKind{
		"conv1": {runtime.OpLayer, runtime.OpGradFilter},
		"conv2": {runtime.OpLayer, runtime.OpBackward, runtime.OpGradFilter},
	}
	for _, tc := range []struct {
		p     *Program
		kinds map[string][]runtime.OpKind // nil: not checked
	}{{lenet16(t), lenetKinds}, {tinyProg, nil}} {
		kinds := map[string]map[runtime.OpKind]bool{}
		for _, op := range tc.p.Ops {
			if _, ok := op.Layer.(*layers.Conv); !ok || op.Kind == runtime.OpSGD {
				continue
			}
			if op.Alg != kernels.ConvAlgGemm {
				t.Errorf("%s %s (%v) runs %v, want %v", tc.p.Net.Name, op.Name, op.Kind, op.Alg, kernels.ConvAlgGemm)
			}
			if kinds[op.Layer.Name()] == nil {
				kinds[op.Layer.Name()] = map[runtime.OpKind]bool{}
			}
			kinds[op.Layer.Name()][op.Kind] = true
		}
		for name, ks := range tc.kinds {
			if len(kinds[name]) != len(ks) {
				t.Errorf("%s has ops of kinds %v, want %v", name, kinds[name], ks)
			}
			for _, k := range ks {
				if !kinds[name][k] {
					t.Errorf("%s has no %v op", name, k)
				}
			}
		}
	}
}

// TestTrainingArenaHoldsAtTheDirectStep pins LeNet@16's training arena at
// the bytes it took when every convolution trained on the direct kernels:
// the GEMM workspaces must fit in the holes the plan already has.  That holds
// because a gradient op's output is placed before its one-op scratch.
func TestTrainingArenaHoldsAtTheDirectStep(t *testing.T) {
	const directBytes = 1857216
	if got := lenet16(t).Mem.PeakBytes(); got > directBytes {
		t.Errorf("LeNet@16 training arena is %d bytes, over the direct step's %d", got, directBytes)
	}
}

// TestAutoStoresAllAtATie holds CheckpointAuto to its tie rule on LeNet@16,
// whose store-all plan sits at its lower bound and equals the recompute
// plan: the tie goes to store-all, which pays no recompute.
func TestAutoStoresAllAtATie(t *testing.T) {
	p := lenet16(t)
	if p.RecomputeOps != 0 {
		t.Errorf("LeNet@16 auto plan checkpoints (%d recompute ops); store-all is as small", p.RecomputeOps)
	}
	if p.Mem.PeakBytes() != p.StorePeakBytes {
		t.Errorf("LeNet@16 auto arena is %d bytes, the store-all plan's %d", p.Mem.PeakBytes(), p.StorePeakBytes)
	}
}

// TestCheckpointLowersPeak is the acceptance criterion: recompute-vs-store
// checkpointing strictly lowers the planned peak on the big nets.
func TestCheckpointLowersPeak(t *testing.T) {
	for _, name := range []string{"AlexNet", "VGG"} {
		ctor := constructors()[name]
		net, err := ctor()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		store, err := CompileTraining(net, Options{Checkpoint: CheckpointOff})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ckpt, err := CompileTraining(net, Options{Checkpoint: CheckpointOn})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ckpt.Mem.PeakBytes() >= store.Mem.PeakBytes() {
			t.Errorf("%s: checkpointed peak %.2f MiB not below store-all %.2f MiB", name,
				float64(ckpt.Mem.PeakBytes())/(1<<20), float64(store.Mem.PeakBytes())/(1<<20))
		}
		auto, err := CompileTraining(net, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if auto.RecomputeOps == 0 {
			t.Errorf("%s: auto policy did not select the checkpointed plan", name)
		}
		for policy, p := range map[string]*Program{"auto": auto, "recompute": ckpt, "store": store} {
			if p.StorePeakBytes != store.Mem.PeakBytes() {
				t.Errorf("%s: %s reports store peak %d, store-all plan has %d", name, policy, p.StorePeakBytes, store.Mem.PeakBytes())
			}
		}
		if _, err := CompileTraining(net, Options{Checkpoint: CheckpointOn + 1}); err == nil {
			t.Errorf("%s: an unknown checkpoint policy compiled", name)
		}
	}
}

// TestPlannedNaiveBitIdentical runs the same training steps through the
// planned (arena, checkpointing auto) executor and the naive (per-buffer,
// store-all) executor on two independently built but identically seeded
// networks, and requires bit-identical losses and final weights.
func TestPlannedNaiveBitIdentical(t *testing.T) {
	small := map[string]int{"LeNet": 8, "Cifar10": 8, "AlexNet": 2, "ZFNet": 2, "VGG": 1}
	heavy := map[string]bool{"AlexNet": true, "ZFNet": true, "VGG": true}
	for name, ctor := range constructors() {
		if heavy[name] && !fullRun() {
			t.Logf("%s: skipped without MEMCNN_GOLDEN_FULL", name)
			continue
		}
		base1, err := ctor()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base2, err := ctor()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		net1, err := base1.WithBatch(small[name])
		if err != nil {
			t.Fatalf("%s: rebatch: %v", name, err)
		}
		net2, err := base2.WithBatch(small[name])
		if err != nil {
			t.Fatalf("%s: rebatch: %v", name, err)
		}

		planned, err := CompileTraining(net1, Options{Checkpoint: CheckpointAuto})
		if err != nil {
			t.Fatalf("%s: compile planned: %v", name, err)
		}
		storeAll, err := CompileTraining(net2, Options{Checkpoint: CheckpointOff})
		if err != nil {
			t.Fatalf("%s: compile store-all: %v", name, err)
		}
		pe, err := NewExecutor(planned)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ne, err := NewNaiveExecutor(storeAll, runtime.CPUDevice{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		for step := 0; step < 2; step++ {
			images, lbls := batch(planned, uint64(7+step))
			ps, err := pe.Step(images, lbls)
			if err != nil {
				t.Fatalf("%s: planned step %d: %v", name, step, err)
			}
			ns, err := ne.Step(images, lbls)
			if err != nil {
				t.Fatalf("%s: naive step %d: %v", name, step, err)
			}
			if math.Float64bits(ps.Loss) != math.Float64bits(ns.Loss) {
				t.Fatalf("%s: step %d loss diverged: planned %v naive %v", name, step, ps.Loss, ns.Loss)
			}
		}
		if c1, c2 := weightChecksum(base1), weightChecksum(base2); c1 != c2 {
			t.Errorf("%s: weights diverged after training (%#x vs %#x)", name, c1, c2)
		}
	}
}

// scaleForTraining rescales the library's uniform [-1,1) weights by
// 1/sqrt(fan-in) so the softmax starts unsaturated — the synthetic init is
// built for memory experiments, not for optimisation.
func scaleForTraining(net *network.Network) {
	for _, l := range net.Layers {
		switch tl := l.(type) {
		case *layers.Conv:
			f := tl.Filters()
			s := float32(1 / math.Sqrt(float64(f.Shape.C*f.Shape.H*f.Shape.W)))
			for i := range f.Data {
				f.Data[i] *= s
			}
		case *layers.FullyConnected:
			w := tl.Weights()
			s := float32(1 / math.Sqrt(float64(tl.InDim)))
			for i := range w {
				w[i] *= s
			}
		}
	}
}

// TestStepBitInvariantAcrossWorkerCounts trains identically seeded LeNets at
// batch 8, whose convolutions train on GEMM, for two steps under GOMAXPROCS
// 1, 2, 3 and 8: every loss and every weight must match the one-worker run
// bit for bit.
func TestStepBitInvariantAcrossWorkerCounts(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(0))
	var wantLoss [2]float64
	var wantWeights uint64
	for _, procs := range []int{1, 2, 3, 8} {
		goruntime.GOMAXPROCS(procs)
		base, err := workloads.LeNet()
		if err != nil {
			t.Fatal(err)
		}
		net, err := base.WithBatch(8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := CompileTraining(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(p)
		if err != nil {
			t.Fatal(err)
		}
		var loss [2]float64
		for step := range loss {
			images, lbls := batch(p, uint64(5+step))
			s, err := exec.Step(images, lbls)
			if err != nil {
				t.Fatal(err)
			}
			loss[step] = s.Loss
		}
		if procs == 1 {
			wantLoss, wantWeights = loss, weightChecksum(base)
			continue
		}
		if loss != wantLoss || weightChecksum(base) != wantWeights {
			t.Errorf("%d workers: losses %v and weights %#x, one worker %v and %#x", procs, loss, weightChecksum(base), wantLoss, wantWeights)
		}
	}
}

// TestLossDecreases drives several steps on one fixed batch: SGD on a batch
// it sees every step must reduce the loss.
func TestLossDecreases(t *testing.T) {
	base, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := base.WithBatch(8)
	if err != nil {
		t.Fatal(err)
	}
	scaleForTraining(net)
	p, err := CompileTraining(net, Options{SGD: SGD{LR: 0.05}})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(p)
	if err != nil {
		t.Fatal(err)
	}
	images, lbls := batch(p, 42)
	var first, last float64
	for step := 0; step < 5; step++ {
		s, err := exec.Step(images, lbls)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == 0 {
			first = s.Loss
		}
		last = s.Loss
	}
	if !(last < first) {
		t.Errorf("loss did not decrease on a fixed batch: first %v last %v", first, last)
	}
}

// TestTrainerEpoch steps one executor over three distinct batches, an epoch
// in miniature: every step reports a plausible loss.
func TestTrainerEpoch(t *testing.T) {
	base, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	net, err := base.WithBatch(4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTraining(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		images, lbls := batch(p, uint64(100+i))
		s, err := exec.Step(images, lbls)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if s.Loss <= 0 || math.IsNaN(s.Loss) {
			t.Errorf("step %d: implausible loss %v", i, s.Loss)
		}
	}
}

// cancelAfter is a CPU device that cancels a context once it has run a given
// number of ops, and counts every op it is asked to run.
type cancelAfter struct {
	runtime.CPUDevice
	after  int
	cancel context.CancelFunc
	ran    int
}

func (d *cancelAfter) RunOp(prog *runtime.Program, i int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	d.ran++
	if d.ran == d.after {
		d.cancel()
	}
	return d.CPUDevice.RunOp(prog, i, in, out, aux, scratch)
}

// TestStepSharesTheRunLoop checks what a training step inherits from running
// through the runtime's op interpreter instead of a loop of its own: a
// panicking device is contained into a *runtime.PanicError, a cancelled
// context stops the step before the next op, and an attached observer sees
// one span per executed op plus the step's run span.
func TestStepSharesTheRunLoop(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	p, err := CompileTraining(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	images, lbls := batch(p, 3)

	faulty, err := NewExecutorOn(p, runtime.WrapFault(runtime.CPUDevice{}, runtime.FaultConfig{Seed: 1, PanicRate: 1}))
	if err != nil {
		t.Fatal(err)
	}
	var pe *runtime.PanicError
	if _, err := faulty.Step(images, lbls); !errors.As(err, &pe) {
		t.Fatalf("step on an always-panicking device: got %v, want *runtime.PanicError", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dev := &cancelAfter{after: 3, cancel: cancel}
	stopped, err := NewNaiveExecutor(p, dev)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stopped.StepCtx(ctx, images, lbls); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step: got %v, want context.Canceled", err)
	}
	if dev.ran != dev.after {
		t.Errorf("step ran %d ops after its context was cancelled during op %d", dev.ran-dev.after, dev.after)
	}

	executed := 0
	for _, op := range p.Ops {
		if op.Kind != runtime.OpReshape || p.Buffers[op.Out].AliasOf == runtime.NoBuffer {
			executed++
		}
	}
	rec := obs.NewRecorder(1 << 10)
	observed, err := NewExecutor(p)
	if err != nil {
		t.Fatal(err)
	}
	observed.exec.Instrument(runtime.Observer{Trace: rec}, runtime.LaneEngine)
	if _, err := observed.Step(images, lbls); err != nil {
		t.Fatal(err)
	}
	if got := len(rec.Snapshot()); got != executed+1 {
		t.Errorf("instrumented step recorded %d spans, want %d op spans + 1 run span", got, executed)
	}
}

// TestTrainingIsLayoutInvariant lowers LeNet@8 and Cifar10@8 from two choice
// lists, convolution, pooling and ReLU in CHWN with the fully-connected
// layers and the softmax in NCHW, and everything in NCHW, each convolution's
// forward on GEMM, under both checkpoint modes.  Each program must pass the
// static checker; each gradient must flow back in the layout of the forward
// buffer it mirrors, with one transform per layout change on the way down;
// and three steps must give bit-equal losses and weights in both layouts,
// the weights having moved.
func TestTrainingIsLayoutInvariant(t *testing.T) {
	for _, ctor := range []func() (*network.Network, error){workloads.LeNet, workloads.Cifar10} {
		for _, drop := range []bool{false, true} {
			var losses [2][3]float64
			var weights [2]uint64
			var names [2]string
			for v := range losses {
				base, err := ctor()
				if err != nil {
					t.Fatal(err)
				}
				net, err := base.WithBatch(8)
				if err != nil {
					t.Fatal(err)
				}
				scaleForTraining(net)
				choices := runtime.Uniform(net, tensor.NCHW)
				for i, l := range net.Layers {
					switch l.(type) {
					case *layers.Conv, *layers.Pool, *layers.ReLU:
						if v == 0 { // the mixed list first, then all NCHW
							choices[i] = tensor.CHWN
						}
					}
				}
				sm := net.Layers[len(net.Layers)-1].(*layers.Softmax)
				p, err := lowerTraining(net, sm, choices, 0.05, drop)
				if err != nil {
					t.Fatal(err)
				}
				names[v] = fmt.Sprintf("%s@8 %v drop=%t", net.Name, choices[0], drop)
				name := names[v]
				if err := runtime.VerifyProgram(p.Program); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkGradientLayouts(t, name, p, choices)

				exec, err := NewExecutor(p)
				if err != nil {
					t.Fatal(err)
				}
				before := weightChecksum(base)
				for step := range losses[v] {
					images, lbls := batch(p, uint64(11+step))
					s, err := exec.Step(images, lbls)
					if err != nil {
						t.Fatalf("%s: step %d: %v", name, step, err)
					}
					losses[v][step] = s.Loss
				}
				if weights[v] = weightChecksum(base); weights[v] == before {
					t.Errorf("%s: three steps left the weights unchanged", name)
				}
			}
			if losses[0] != losses[1] || weights[0] != weights[1] {
				t.Errorf("%s gives losses %v and weights %#x, %s %v and %#x",
					names[0], losses[0], weights[0], names[1], losses[1], weights[1])
			}
		}
	}
}

// checkGradientLayouts holds p's backward section to its choice list: every
// gradient op reads the layout of its layer's forward output, a backward-data
// op writes the layout of its layer's forward input, and the gradient
// changes layout exactly where the choice list does, by one transform of a
// gradient each.
func checkGradientLayouts(t *testing.T, name string, p *Program, choices []tensor.Layout) {
	t.Helper()
	index := make(map[layers.Layer]int)
	lowest := -1 // the lowest trainable layer, where the gradient chain stops
	for i, l := range p.Net.Layers {
		index[l] = i
		if _, ok := l.(layers.TrainableLayer); ok && lowest < 0 {
			lowest = i
		}
	}
	want := 0 // the last is the logit gradient's NCHW into the top layer
	for i := lowest; i < len(choices)-1; i++ {
		if choices[i] != choices[i+1] {
			want++
		}
	}
	layoutOf := func(id runtime.BufferID) tensor.Layout { return p.Buffers[id].Layout }
	grads := make(map[runtime.BufferID]bool) // buffers holding a gradient
	transforms := 0
	for _, op := range p.Ops {
		switch op.Kind {
		case runtime.OpLossGrad:
			grads[op.Out] = true
		case runtime.OpReshape, runtime.OpTransform:
			if !grads[op.In] {
				continue
			}
			grads[op.Out] = true
			if op.Kind == runtime.OpTransform {
				transforms++
			}
		case runtime.OpBackward, runtime.OpGradFilter:
			i := index[op.Layer]
			if !grads[op.In] || layoutOf(op.In) != choices[i] {
				t.Errorf("%s: %s reads %v, want the gradient in its forward output's %v", name, op.Name, layoutOf(op.In), choices[i])
			}
			if op.Kind == runtime.OpBackward {
				grads[op.Out] = true
				if layoutOf(op.Out) != choices[i] {
					t.Errorf("%s: %s writes %v, its forward input is %v", name, op.Name, layoutOf(op.Out), choices[i])
				}
			}
		}
	}
	if transforms != want {
		t.Errorf("%s: %d transforms of a gradient, want %d", name, transforms, want)
	}
}
