package runtime_test

import (
	"os"
	"reflect"
	goruntime "runtime"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// fftFlipNet builds pool → conv → pool with the one kind of convolution the
// host prices cheapest in the frequency domain: filters as large as the image
// (63×63 on 64×64), where the GEMM unroll matrix is 31 752 rows deep.  All
// three layers are planned in CHWN, the pooling layers' layout.
func fftFlipNet(t *testing.T) (*network.Network, *network.ExecutionPlan) {
	t.Helper()
	pool1, err := layers.NewPool("pool1", kernels.PoolConfig{N: 4, C: 8, H: 128, W: 128, Window: 2, Stride: 2, Op: kernels.MaxPool})
	if err != nil {
		t.Fatal(err)
	}
	conv, err := layers.NewConv("conv-flip", kernels.ConvConfig{N: 4, C: 8, H: 64, W: 64, K: 16, FH: 63, FW: 63, PadH: 31, PadW: 31}, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool2, err := layers.NewPool("pool2", kernels.PoolConfig{N: 4, C: 16, H: 64, W: 64, Window: 2, Stride: 2, Op: kernels.MaxPool})
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New("FlipNet", 4, pool1, conv, pool2)
	if err != nil {
		t.Fatal(err)
	}
	plan := &network.ExecutionPlan{PlannerName: "test", Network: net, Device: gpusim.TitanBlack()}
	for _, l := range net.Layers {
		plan.Layers = append(plan.Layers, network.PlannedLayer{Layer: l, Layout: tensor.CHWN})
	}
	return net, plan
}

// TestJointLayoutAlgorithmFlip checks the one layout rule of algorithm
// selection: the FFT kernel runs in NCHW, so a convolution the selection pass
// gives to FFT on a CHWN plan moves to NCHW, with a transform op on each side
// of it.  Without ConvAlgorithms the plan's CHWN assignment stands and the
// layer runs the direct kernel; an explicit FFT/NCHW entry in a decision list
// lowers to the same program the selection pass produces.
func TestJointLayoutAlgorithmFlip(t *testing.T) {
	net, plan := fftFlipNet(t)

	plain, err := runtime.CompileWithOptions(plan, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ch := plain.ConvChoices()[0]; ch.Alg != kernels.ConvAlgDirect || ch.Layout != tensor.CHWN {
		t.Errorf("without algorithm selection: got %v/%v, want direct/CHWN", ch.Alg, ch.Layout)
	}

	joint, err := runtime.CompileWithOptions(plan, runtime.Options{ConvAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	if ch := joint.ConvChoices()[0]; ch.Alg != kernels.ConvAlgFFT || ch.Layout != tensor.NCHW {
		t.Fatalf("with algorithm selection: got %v/%v, want fft/NCHW — the layout must move with the algorithm",
			ch.Alg, ch.Layout)
	}
	var kinds []string
	for _, op := range joint.Ops {
		kinds = append(kinds, op.Kind.String())
	}
	if want := []string{"layer", "transform", "layer", "transform", "layer"}; !reflect.DeepEqual(kinds, want) {
		t.Errorf("selected program's ops are %v, want %v: a transform on each side of the FFT convolution", kinds, want)
	}

	explicit := runtime.PlanChoices(plan)
	explicit[1] = runtime.Choice{Layout: tensor.NCHW, Alg: kernels.ConvAlgFFT}
	listed, err := runtime.Compile(net, plan.PlannerName, explicit, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := programDump(listed), programDump(joint); got != want {
		t.Errorf("the explicit FFT/NCHW decision list lowers to\n%s\nthe selection pass to\n%s", got, want)
	}
}

// TestHostSelectionNeverPicksFFT pins the finding of host-priced selection
// on the paper's workload networks at full batch: no convolution of the five
// is cheapest in the frequency domain on the CPU, so none compiles to FFT.
// FFT stays a production algorithm for decision lists that name it
// (TestFixedAlgorithmGolden executes such programs against their reference).
func TestHostSelectionNeverPicksFFT(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.NetworkOrder {
		prog := mustCompileOpts(t, planners()[2], nets[name], runtime.Options{ConvAlgorithms: true})
		for _, ch := range prog.ConvChoices() {
			if ch.Alg == kernels.ConvAlgFFT {
				t.Errorf("%s %s: FFT selected (in %v)", name, ch.Layer, ch.Layout)
			}
		}
	}
}

// TestWithBatchPinsFFT checks that rebatched clones inherit an FFT choice
// instead of re-selecting by the smaller batch shape — the same pinning the
// replica scheduler relies on for the GEMM path.  The FFT base comes from an
// explicit decision list: selection would give these layers to GEMM.
func TestWithBatchPinsFFT(t *testing.T) {
	tiny, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	base, err := compilePinned(tiny, kernels.ConvAlgFFT)
	if err != nil {
		t.Fatal(err)
	}
	clone, err := base.WithBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range clone.ConvChoices() {
		if ch.Alg != kernels.ConvAlgFFT || ch.Layout != tensor.NCHW {
			t.Errorf("rebatched clone, %s: got %v/%v, want the base's fft/NCHW pinned", ch.Layer, ch.Alg, ch.Layout)
		}
	}
}

// TestFixedAlgorithmGolden holds every production convolution algorithm
// against ReferenceForward on the workload networks, with selection bypassed
// so each algorithm covers every convolution layer it can run.  The cheap
// networks run un-gated; the ImageNet-scale shapes (whose power-of-two FFT
// planes reach 256x256) join behind MEMCNN_GOLDEN_FULL.
func TestFixedAlgorithmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("fixed-algorithm goldens run full convolutions; skipped with -short")
	}
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	cases := []*network.Network{nets["LeNet"]}
	cifarSmall, err := workloads.Cifar10WithBatch(16)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, cifarSmall)
	if os.Getenv("MEMCNN_GOLDEN_FULL") != "" {
		alexSmall, err := workloads.AlexNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		zfSmall, err := workloads.ZFNetWithBatch(4)
		if err != nil {
			t.Fatal(err)
		}
		vggSmall, err := workloads.VGGWithBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, alexSmall, zfSmall, vggSmall)
	}
	algs := []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm, kernels.ConvAlgFFT}
	for _, net := range cases {
		in := tensor.Random(net.InputShape(), tensor.NCHW, 99)
		for _, alg := range algs {
			prog, err := compilePinned(net, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name, alg, err)
			}
			for _, ch := range prog.ConvChoices() {
				if ch.Alg != alg {
					t.Fatalf("%s/%v: layer %s compiled with %v", net.Name, alg, ch.Layer, ch.Alg)
				}
			}
			want, err := prog.ReferenceForward(in)
			if err != nil {
				t.Fatalf("%s/%v: reference forward: %v", net.Name, alg, err)
			}
			got, err := runtime.NewExecutor(prog).Run(in)
			if err != nil {
				t.Fatalf("%s/%v: %v", net.Name, alg, err)
			}
			requireBitEqual(t, net.Name+"/"+alg.String(), got, want)
		}
	}
}

// TestFFTAllocFree checks the planned FFT path's allocation discipline: with
// the transforms running over caller-provided arena scratch, a warm executor
// performs zero steady-state heap allocations per run.  GOMAXPROCS is pinned
// to 1 so the kernel takes its serial path — the parallel path's only
// allocations are the goroutine fan-out the runtime documents as the one
// remaining source of steady-state heap traffic.
func TestFFTAllocFree(t *testing.T) {
	cfg := kernels.ConvConfig{N: 1, C: 2, H: 16, W: 16, K: 4, FH: 5, FW: 5, PadH: 2, PadW: 2}
	conv, err := layers.NewConv("conv-alloc", cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New("AllocNet", cfg.N, conv)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compilePinned(net, kernels.ConvAlgFFT)
	if err != nil {
		t.Fatal(err)
	}
	exec := runtime.NewExecutor(prog)
	in := tensor.Random(prog.InputShape(), tensor.NCHW, 3)
	dst := tensor.New(prog.OutputShape(), tensor.NCHW)

	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	// Warm the instance pool so the measured runs reuse the arena.
	for i := 0; i < 2; i++ {
		if err := exec.RunInto(in, dst); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := exec.RunInto(in, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("planned FFT run allocates %.1f objects per run, want 0", allocs)
	}
}
