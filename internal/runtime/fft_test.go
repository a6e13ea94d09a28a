package runtime_test

import (
	"os"
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

// fftFlipNet builds a single-convolution network whose shape sits on both
// sides of the layout decision: small channel depth (C=8 < the CHWN channel
// threshold) makes the planner place it in CHWN for the direct kernel, while
// its 7x7 stride-1 filters at 1.3e10 FMAs put it squarely in the FFT regime,
// which runs in NCHW.
func fftFlipNet(t *testing.T) (*network.Network, *layers.Conv) {
	t.Helper()
	cfg := kernels.ConvConfig{N: 64, C: 8, H: 32, W: 32, K: 512, FH: 7, FW: 7, PadH: 3, PadW: 3}
	conv, err := layers.NewConv("conv-flip", cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New("FlipNet", cfg.N, conv)
	if err != nil {
		t.Fatal(err)
	}
	return net, conv
}

// TestJointLayoutAlgorithmFlip checks the headline property of joint
// layout+algorithm selection: the same layer lands in a different layout
// depending on whether algorithm selection is on.  Without ConvAlgorithms the
// plan's CHWN assignment stands and the layer runs the direct kernel; with it,
// the compiler prices the FFT mode, flips the algorithm to FFT and the layout
// to NCHW in the same decision.
func TestJointLayoutAlgorithmFlip(t *testing.T) {
	net, conv := fftFlipNet(t)
	plan := &network.ExecutionPlan{
		PlannerName: "test",
		Network:     net,
		Device:      gpusim.TitanBlack(),
		Layers:      []network.PlannedLayer{{Layer: conv, Layout: tensor.CHWN}},
	}

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
		t.Errorf("with algorithm selection: got %v/%v, want fft/NCHW — the layout must flip with the algorithm",
			ch.Alg, ch.Layout)
	}
}

// TestHeuristicSelectionPicksFFT pins the joint sweep's decisions on the
// paper's workload networks at full batch: the ImageNet-scale models each
// compile with at least one FFT convolution (AlexNet conv2 through the
// analytic regime, ZFNet conv3-5 and VGG conv4_1 through priced promotion of
// a GEMM baseline), always in NCHW, while the small networks stay FFT-free.
func TestHeuristicSelectionPicksFFT(t *testing.T) {
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	wantFFT := map[string]bool{
		"LeNet":   false,
		"Cifar10": false,
		"AlexNet": true,
		"ZFNet":   true,
		"VGG":     true,
	}
	for name, want := range wantFFT {
		prog := mustCompileOpts(t, planners()[2], nets[name], runtime.Options{ConvAlgorithms: true})
		ffts := 0
		for _, ch := range prog.ConvChoices() {
			if ch.Alg != kernels.ConvAlgFFT {
				continue
			}
			ffts++
			if ch.Layout != tensor.NCHW {
				t.Errorf("%s %s: FFT selected in %v, the FFT kernel only prices in NCHW", name, ch.Layer, ch.Layout)
			}
			if ch.WorkspaceBytes == 0 {
				t.Errorf("%s %s: FFT selected without planned workspace", name, ch.Layer)
			}
		}
		if want && ffts == 0 {
			t.Errorf("%s: no FFT convolution selected, want at least one", name)
		}
		if !want && ffts > 0 {
			t.Errorf("%s: %d FFT convolutions selected, want none", name, ffts)
		}
	}
}

// TestWithBatchPinsFFT checks that rebatched clones inherit an FFT choice
// instead of re-selecting by the smaller batch shape — the same pinning the
// replica scheduler relies on for the GEMM path.
func TestWithBatchPinsFFT(t *testing.T) {
	net, conv := fftFlipNet(t)
	plan := &network.ExecutionPlan{
		PlannerName: "test",
		Network:     net,
		Device:      gpusim.TitanBlack(),
		Layers:      []network.PlannedLayer{{Layer: conv, Layout: tensor.CHWN}},
	}
	base, err := runtime.CompileWithOptions(plan, runtime.Options{ConvAlgorithms: true})
	if err != nil {
		t.Fatal(err)
	}
	if ch := base.ConvChoices()[0]; ch.Alg != kernels.ConvAlgFFT {
		t.Fatalf("base program selected %v, the test needs an FFT base", ch.Alg)
	}
	clone, err := base.WithBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	if ch := clone.ConvChoices()[0]; ch.Alg != kernels.ConvAlgFFT || ch.Layout != tensor.NCHW {
		t.Errorf("rebatched clone: got %v/%v, want the base's fft/NCHW pinned", ch.Alg, ch.Layout)
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
