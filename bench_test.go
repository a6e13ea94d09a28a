package memcnn_test

// Benchmark harness: one testing.B benchmark per table/figure of the paper's
// evaluation section.  Each benchmark regenerates its experiment from the GPU
// performance model and reports the headline quantity of that experiment as a
// custom metric, so `go test -bench=. -benchmem` reproduces the shape of the
// published results in one run.  The experiments themselves live in
// internal/bench.

import (
	"math"
	"testing"

	"memcnn/internal/autotune"
	"memcnn/internal/bench"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layout"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func device() *gpusim.Device        { return gpusim.TitanBlack() }
func thresholds() layout.Thresholds { return layout.TitanBlackThresholds() }

// BenchmarkTable1Inventory enumerates the benchmark layer configurations.
func BenchmarkTable1Inventory(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		t := bench.Table1Inventory()
		rows = len(t.Rows)
	}
	b.ReportMetric(float64(rows), "layers")
}

// BenchmarkFigure1 regenerates Fig. 1 (layout comparison on AlexNet layers).
func BenchmarkFigure1(b *testing.B) {
	d := device()
	var maxRatio float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure1(d)
		maxRatio = 0
		for _, r := range rows {
			if r.NCHWNormalized > maxRatio {
				maxRatio = r.NCHWNormalized
			}
		}
	}
	b.ReportMetric(maxRatio, "max_NCHW/CHWN")
}

// BenchmarkFigure3 regenerates Fig. 3 (layout comparison on Table 1 convolutions).
func BenchmarkFigure3(b *testing.B) {
	d := device()
	var chwnWins int
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure3(d)
		chwnWins = 0
		for _, r := range rows {
			if r.CHWNWins {
				chwnWins++
			}
		}
	}
	b.ReportMetric(float64(chwnWins), "CHWN_wins_of_12")
}

// BenchmarkFigure4N regenerates Fig. 4a (batch-size sensitivity).
func BenchmarkFigure4N(b *testing.B) {
	d := device()
	var peak float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure4N(d)
		peak = rows[len(rows)-1].CHWNGflops
	}
	b.ReportMetric(peak, "CHWN_GFLOPS@N=512")
}

// BenchmarkFigure4C regenerates Fig. 4b (channel-count sensitivity).
func BenchmarkFigure4C(b *testing.B) {
	d := device()
	var peak float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure4C(d)
		peak = rows[len(rows)-1].NCHWGflops
	}
	b.ReportMetric(peak, "NCHW_GFLOPS@C=256")
}

// BenchmarkFigure5 regenerates Fig. 5 (FFT-based convolution modes).
func BenchmarkFigure5(b *testing.B) {
	d := device()
	var oom int
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure5(d)
		oom = 0
		for _, r := range rows {
			if r.FFTOOM {
				oom++
			}
		}
	}
	b.ReportMetric(float64(oom), "FFT_OOM_layers")
}

// BenchmarkFigure6 regenerates Fig. 6 (pooling layout comparison).
func BenchmarkFigure6(b *testing.B) {
	d := device()
	var worst float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure6(d)
		worst = 1
		for _, r := range rows {
			if r.CuDNNSpeedup < worst {
				worst = r.CuDNNSpeedup
			}
		}
	}
	b.ReportMetric(1/worst, "max_CHWN_speedup_vs_cuDNN")
}

// BenchmarkFigure10 regenerates Fig. 10 (layout benefit vs transform overhead).
func BenchmarkFigure10(b *testing.B) {
	d := device()
	var geomean float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure10(d)
		prod := 1.0
		for _, r := range rows {
			prod *= r.OptTransSpeedup
		}
		geomean = pow(prod, 1/float64(len(rows)))
	}
	b.ReportMetric(geomean, "gm_speedup_with_opt_transform")
}

// BenchmarkFigure11 regenerates Fig. 11 (transformation bandwidth).
func BenchmarkFigure11(b *testing.B) {
	d := device()
	var best float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure11(d)
		best = 0
		for _, r := range rows {
			if r.VecGBs > best {
				best = r.VecGBs
			}
		}
	}
	b.ReportMetric(best, "best_transform_GB/s")
}

// BenchmarkFigure12 regenerates Fig. 12 (optimised pooling).
func BenchmarkFigure12(b *testing.B) {
	d := device()
	var avg float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure12(d)
		sum := 0.0
		for _, r := range rows {
			sum += r.OptBandwidthGB
		}
		avg = sum / float64(len(rows))
	}
	b.ReportMetric(avg, "avg_opt_pool_GB/s")
}

// BenchmarkFigure13 regenerates Fig. 13 (softmax bandwidth).
func BenchmarkFigure13(b *testing.B) {
	d := device()
	var best float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.Figure13(d)
		best = 0
		for _, r := range rows {
			if r.OptGBs > best {
				best = r.OptGBs
			}
		}
	}
	b.ReportMetric(best, "best_softmax_GB/s")
}

// BenchmarkFigure14 regenerates Fig. 14 (whole-network comparison).
func BenchmarkFigure14(b *testing.B) {
	d := device()
	th := thresholds()
	var lenetSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Figure14(d, th)
		if err != nil {
			b.Fatal(err)
		}
		lenetSpeedup = rows[0].Speedups["Opt"]
	}
	b.ReportMetric(lenetSpeedup, "LeNet_Opt_vs_cuDNN-MM")
}

// BenchmarkFigure15 regenerates Fig. 15 (AlexNet per-layer breakdown).
func BenchmarkFigure15(b *testing.B) {
	d := device()
	th := thresholds()
	var softmaxSpeedup float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.Figure15(d, th)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Layer == "prob" {
				softmaxSpeedup = r.OptSpeedup
			}
		}
	}
	b.ReportMetric(softmaxSpeedup, "softmax_Opt_vs_cuDNN")
}

// BenchmarkThresholdCalibration regenerates the (Ct, Nt) calibration.
func BenchmarkThresholdCalibration(b *testing.B) {
	var ct float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.ThresholdCalibration()
		ct = float64(rows[0].Calibrated.Ct)
	}
	b.ReportMetric(ct, "TitanBlack_Ct")
}

// BenchmarkTitanX regenerates the Section VI.C Titan X summary.
func BenchmarkTitanX(b *testing.B) {
	var vggOverCC float64
	for i := 0; i < b.N; i++ {
		rows, _, err := bench.TitanXSummary()
		if err != nil {
			b.Fatal(err)
		}
		vggOverCC = rows[1].OverCudaConvnet
	}
	b.ReportMetric(vggOverCC, "VGG_Opt_vs_cuda-convnet")
}

// BenchmarkSoftmaxAblation regenerates the fusion/parallelisation ablation.
func BenchmarkSoftmaxAblation(b *testing.B) {
	d := device()
	var geomeanFusion float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.SoftmaxAblation(d)
		prod := 1.0
		for _, r := range rows {
			prod *= r.FusionSpeedup
		}
		geomeanFusion = pow(prod, 1/float64(len(rows)))
	}
	b.ReportMetric(geomeanFusion, "gm_fusion_speedup")
}

// BenchmarkPoolingAblation regenerates the auto-tuner ablation.
func BenchmarkPoolingAblation(b *testing.B) {
	d := device()
	var probes float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.PoolingAblation(d)
		probes = 0
		for _, r := range rows {
			probes += float64(r.TunedProbes)
		}
		probes /= float64(len(rows))
	}
	b.ReportMetric(probes, "avg_hillclimb_probes")
}

// BenchmarkTrainingStep prices complete forward-backward iterations of the
// Table 1 convolutions and checks the layout preference carries over to
// training (the paper's footnote 1 and its forward-backward profiling).
func BenchmarkTrainingStep(b *testing.B) {
	d := device()
	var agree float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.TrainingStep(d)
		agree = 0
		for _, r := range rows {
			if r.SamePreference {
				agree++
			}
		}
	}
	b.ReportMetric(agree, "same_preference_of_12")
}

// BenchmarkHeuristicAccuracy checks the heuristic against the model oracle.
func BenchmarkHeuristicAccuracy(b *testing.B) {
	d := device()
	th := thresholds()
	var agree float64
	for i := 0; i < b.N; i++ {
		rows, _ := bench.HeuristicAccuracy(d, th)
		agree = 0
		for _, r := range rows {
			if r.Agree {
				agree++
			}
		}
	}
	b.ReportMetric(agree, "agreements_of_12")
}

// BenchmarkInference compares the naive Network.Forward against the planned
// executor of internal/runtime on the same network and input: same values,
// different memory discipline.  The imgs/sec metrics track the functional
// throughput; allocs/op (run with -benchmem) shows the arena executor's
// steady-state allocation behaviour against the naive per-layer allocations.
func BenchmarkInference(b *testing.B) {
	net, err := workloads.TinyNet()
	if err != nil {
		b.Fatal(err)
	}
	in := tensor.Random(net.InputShape(), tensor.NCHW, 3)
	batch := float64(net.Batch)

	b.Run("Naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := net.Forward(in); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "imgs/sec")
	})

	b.Run("Planned", func(b *testing.B) {
		prog, err := memruntime.Compile(net, "fixed-NCHW", memruntime.Uniform(net, tensor.NCHW, kernels.ConvAlgDirect), memruntime.Options{})
		if err != nil {
			b.Fatal(err)
		}
		exec := memruntime.NewExecutor(prog)
		out := tensor.New(prog.OutputShape(), tensor.NCHW)
		if err := exec.RunInto(in, out); err != nil { // warm the arena pool
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := exec.RunInto(in, out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(batch*float64(b.N)/b.Elapsed().Seconds(), "imgs/sec")
	})
}

// BenchmarkConvAlgorithms compares the three production convolution
// strategies of the planned runtime — direct, im2col+GEMM and FFT — across
// layer shapes from the paper's regimes, and reports which one the
// compile-time selector picks (selected metric).  The GEMM path must win
// clearly on the VGG/AlexNet-scale shapes, the direct path keeps tiny
// single-image layers cheap, and the FFT path takes the large-filter stride-1
// AlexNet conv2 shape; all three run allocation-free into pre-sized buffers,
// exactly as the executor drives them.  Every shape runs on NCHW tensors; the
// LeNet shapes also run the direct and the GEMM kernel on CHWN tensors, the
// layout the compiler gives those layers at batch 128 (the paper's coalesced
// case: it keeps GEMM in CHWN on LeNet conv2, Cifar10 conv1/conv2 and AlexNet
// conv1, where the kernel takes its batch-folded form).
func BenchmarkConvAlgorithms(b *testing.B) {
	shapes := []struct {
		name string
		cfg  kernels.ConvConfig
		chwn bool // also run direct and GEMM on CHWN tensors
	}{
		{name: "1img-small", cfg: kernels.ConvConfig{N: 1, C: 3, H: 16, W: 16, K: 8, FH: 3, FW: 3, PadH: 1, PadW: 1}},
		{name: "cifar-conv2", cfg: kernels.ConvConfig{N: 32, C: 64, H: 12, W: 12, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}},
		{name: "vgg-conv3_1", cfg: kernels.ConvConfig{N: 2, C: 128, H: 28, W: 28, K: 256, FH: 3, FW: 3, PadH: 1, PadW: 1}},
		{name: "alexnet-conv2@n32", cfg: kernels.ConvConfig{N: 32, C: 96, H: 27, W: 27, K: 256, FH: 5, FW: 5, PadH: 2, PadW: 2}},
		{name: "lenet-conv1@n128", cfg: kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 20, FH: 5, FW: 5}, chwn: true},
		{name: "lenet-conv2@n128", cfg: kernels.ConvConfig{N: 128, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	}
	for _, s := range shapes {
		cfg := s.cfg
		in := tensor.Random(cfg.InputShape(), tensor.NCHW, 1)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
		out := tensor.New(cfg.OutputShape(), tensor.NCHW)
		packed, err := kernels.PackConvFilters(filters, cfg)
		if err != nil {
			b.Fatal(err)
		}
		scratch := make([]float32, kernels.ConvGemmWorkspaceElems(cfg, tensor.NCHW))
		fftScratch := make([]float32, kernels.ConvFFTWorkspaceElems(cfg))
		gflop := cfg.FLOPs() / 1e9
		selected := autotune.SelectConvAlgorithm(cfg)

		direct := func(in, out *tensor.Tensor) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := kernels.ConvDirectInto(in, filters, out, cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
				b.ReportMetric(boolMetric(selected == kernels.ConvAlgDirect), "selected")
			}
		}
		gemm := func(in, out *tensor.Tensor, scratch []float32) func(b *testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := kernels.ConvIm2colGemmInto(in, packed, out, cfg, scratch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
				b.ReportMetric(boolMetric(selected == kernels.ConvAlgGemm), "selected")
			}
		}
		b.Run(s.name+"/direct", direct(in, out))
		b.Run(s.name+"/gemm", gemm(in, out, scratch))
		if s.chwn {
			inCHWN, outCHWN := tensor.Convert(in, tensor.CHWN), tensor.New(cfg.OutputShape(), tensor.CHWN)
			b.Run(s.name+"/direct-chwn", direct(inCHWN, outCHWN))
			b.Run(s.name+"/gemm-chwn", gemm(inCHWN, outCHWN, make([]float32, kernels.ConvGemmWorkspaceElems(cfg, tensor.CHWN))))
		}
		b.Run(s.name+"/fft", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := kernels.ConvFFTInto(in, filters, out, cfg, fftScratch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
			b.ReportMetric(boolMetric(selected == kernels.ConvAlgFFT), "selected")
		})
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// pow computes the geometric-mean root used by several benchmarks.
func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}
