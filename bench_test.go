package memcnn_test

// Benchmark harness: one testing.B benchmark per table/figure of the paper's
// evaluation section.  Each benchmark regenerates its experiment from the GPU
// performance model and reports the headline quantity of that experiment as a
// custom metric, so `go test -bench=. -benchmem` reproduces the shape of the
// published results in one run.  The experiments themselves live in
// internal/bench.

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"memcnn/internal/autotune"
	"memcnn/internal/bench"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/par"
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
		prog, err := memruntime.Compile(net, "fixed-NCHW", memruntime.Uniform(net, tensor.NCHW), memruntime.Options{})
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

type convAlgShape struct {
	name string
	cfg  kernels.ConvConfig
	chwn bool
}

// layouts lists the tensor layouts the shape is timed in.
func (s convAlgShape) layouts() []tensor.Layout {
	if s.chwn {
		return []tensor.Layout{tensor.NCHW, tensor.CHWN}
	}
	return []tensor.Layout{tensor.NCHW}
}

// convAlgShapes are the layer shapes BenchmarkConvAlgorithms times and
// TestSelectionRegret checks: the shapes the constants of the host price
// list (internal/autotune/prices.go) cite.  Every shape runs on NCHW
// tensors; chwn ones also on CHWN tensors, the layout the compiler gives those
// layers, where the GEMM kernel's columns run image by image.
var convAlgShapes = []convAlgShape{
	// One fan-out dominates: 1.3 kFLOP of work.
	{name: "1img-tiny", cfg: kernels.ConvConfig{N: 1, C: 1, H: 8, W: 8, K: 2, FH: 3, FW: 3}},
	{name: "1img-small", cfg: kernels.ConvConfig{N: 1, C: 3, H: 16, W: 16, K: 8, FH: 3, FW: 3, PadH: 1, PadW: 1}},
	{name: "cifar10-conv1@n8", cfg: kernels.ConvConfig{N: 8, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar10-conv2@n8", cfg: kernels.ConvConfig{N: 8, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	// The server's smaller buckets of the same layers: one image is one
	// column order in either layout, two and four run image by image in CHWN
	// with the unroll's runs reaching across a row's inside pixels.
	{name: "cifar10-conv1@n1", cfg: kernels.ConvConfig{N: 1, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar10-conv2@n1", cfg: kernels.ConvConfig{N: 1, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar10-conv1@n2", cfg: kernels.ConvConfig{N: 2, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar10-conv2@n2", cfg: kernels.ConvConfig{N: 2, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar10-conv1@n4", cfg: kernels.ConvConfig{N: 4, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar10-conv2@n4", cfg: kernels.ConvConfig{N: 4, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "cifar-conv2", cfg: kernels.ConvConfig{N: 32, C: 64, H: 12, W: 12, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}},
	{name: "vgg-conv3_1", cfg: kernels.ConvConfig{N: 2, C: 128, H: 28, W: 28, K: 256, FH: 3, FW: 3, PadH: 1, PadW: 1}},
	{name: "alexnet-conv2@n32", cfg: kernels.ConvConfig{N: 32, C: 96, H: 27, W: 27, K: 256, FH: 5, FW: 5, PadH: 2, PadW: 2}},
	{name: "lenet-conv1@n128", cfg: kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 20, FH: 5, FW: 5}, chwn: true},
	{name: "lenet-conv2@n128", cfg: kernels.ConvConfig{N: 128, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
}

// convAlgKernel returns one allocation-free call of the production alg
// kernel on lay tensors of shape cfg into pre-sized buffers, exactly as the
// executor drives it.  It builds only what that kernel reads.
func convAlgKernel(tb testing.TB, cfg kernels.ConvConfig, lay tensor.Layout, alg kernels.ConvAlgorithm) func() error {
	in := tensor.Random(cfg.InputShape(), lay, 1)
	filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
	out := tensor.New(cfg.OutputShape(), lay)
	if alg == kernels.ConvAlgGemm {
		packed, err := kernels.PackConvFilters(filters, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		scratch := make([]float32, kernels.ConvGemmWorkspaceElems(cfg, lay))
		return func() error { return kernels.ConvIm2colGemmInto(in, packed, out, cfg, scratch) }
	}
	return func() error { return kernels.ConvDirectInto(in, filters, out, cfg) }
}

// BenchmarkConvAlgorithms times the im2col+GEMM kernel every compiled
// convolution runs and the direct kernel Network.Forward runs as the
// reference, on convAlgShapes, in NCHW and (suffix -chwn) in CHWN.  It is the
// provenance of the host price table's convolution rates: each sub-benchmark
// reports its GFLOP/s, whether the compiler runs that kernel (selected), and
// on the GEMM row the shape's regret, GEMM's time over the faster kernel's.
func BenchmarkConvAlgorithms(b *testing.B) {
	algNames := []string{kernels.ConvAlgDirect: "direct", kernels.ConvAlgGemm: "gemm"}
	const selected = kernels.ConvAlgGemm
	for _, s := range convAlgShapes {
		for _, lay := range s.layouts() {
			suffix := ""
			if lay == tensor.CHWN {
				suffix = "-chwn"
			}
			perOp := make([]float64, len(algNames))
			for alg, name := range algNames {
				alg := kernels.ConvAlgorithm(alg)
				b.Run(s.name+"/"+name+suffix, func(b *testing.B) {
					run := convAlgKernel(b, s.cfg, lay, alg)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(); err != nil {
							b.Fatal(err)
						}
					}
					perOp[alg] = b.Elapsed().Seconds() / float64(b.N)
					b.ReportMetric(s.cfg.FLOPs()/1e9/perOp[alg], "GFLOP/s")
					b.ReportMetric(boolMetric(selected == alg), "selected")
					if alg == kernels.ConvAlgGemm && perOp[kernels.ConvAlgDirect] > 0 {
						b.ReportMetric(perOp[selected]/slices.Min(perOp), "regret")
					}
				})
			}
		}
	}
	for _, s := range convTrainShapes {
		for _, lay := range s.layouts() {
			suffix := ""
			if lay == tensor.CHWN {
				suffix = "-chwn"
			}
			for _, op := range convTrainOps(s.cfg, lay) {
				b.Run(s.name+"/"+op.name+suffix, func(b *testing.B) {
					run := op.build(b)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := run(); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(s.cfg.FLOPs()/1e9/(b.Elapsed().Seconds()/float64(b.N)), "GFLOP/s")
				})
			}
		}
	}
}

// convTrainShapes are the convolutions of the two training networks the
// tests and the benchmark train, at their batches: BenchmarkConvAlgorithms
// times the three ops a training step runs on each (the GEMM forward, the
// data gradient and the filter gradient) in both layouts.  They are the
// provenance of the host price list's gradient rates.
var convTrainShapes = []convAlgShape{
	{name: "train-lenet-conv1@n16", cfg: kernels.ConvConfig{N: 16, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "train-lenet-conv2@n16", cfg: kernels.ConvConfig{N: 16, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "train-cifar10-conv1@n8", cfg: kernels.ConvConfig{N: 8, C: 3, H: 24, W: 24, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
	{name: "train-cifar10-conv2@n8", cfg: kernels.ConvConfig{N: 8, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, chwn: true},
}

// convTrainOps names the three ops of a convolution's training step (the
// GEMM forward, the data gradient and the filter gradient), in step order.
// Each build returns one allocation-free call of its op on lay tensors of
// shape cfg, and builds only what that op reads.
func convTrainOps(cfg kernels.ConvConfig, lay tensor.Layout) []struct {
	name  string
	build func(testing.TB) func() error
} {
	return []struct {
		name  string
		build func(testing.TB) func() error
	}{
		{"gemm", func(tb testing.TB) func() error { return convAlgKernel(tb, cfg, lay, kernels.ConvAlgGemm) }},
		{"bwd-data", func(testing.TB) func() error {
			dOut, dIn := tensor.Random(cfg.OutputShape(), lay, 3), tensor.New(cfg.InputShape(), lay)
			filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
			scratch := make([]float32, kernels.ConvGemmBackwardDataWorkspaceElems(cfg))
			return func() error { return kernels.ConvGemmBackwardDataInto(dOut, filters, dIn, cfg, scratch) }
		}},
		{"grad-filter", func(testing.TB) func() error {
			in, dOut := tensor.Random(cfg.InputShape(), lay, 1), tensor.Random(cfg.OutputShape(), lay, 3)
			dW := tensor.New(cfg.FilterShape(), tensor.NCHW)
			scratch := make([]float32, kernels.ConvGemmBackwardFilterWorkspaceElems(cfg))
			return func() error { return kernels.ConvGemmBackwardFilterInto(in, dOut, dW, cfg, scratch) }
		}},
	}
}

// BenchmarkLayerRates times every layer but the convolutions of the three
// inference workloads' networks (LeNet at batch 128, Cifar10 at 8, AlexNet at
// 4) through the layer's own ForwardInto, in NCHW and (suffix -chwn) in CHWN,
// exactly as the executor drives it (on layerInput's inputs), and (suffix /bwd) the gradients a
// training step runs for each layer that has them.  It is the provenance of
// the host price list's pooling, fully-connected, ReLU, LRN and softmax rates
// and of their gradients': each sub-benchmark reports the list's estimate for
// the call (priced_ns), so rate × ns/op ÷ priced_ns re-reads a rate.
func BenchmarkLayerRates(b *testing.B) {
	for _, tg := range []struct {
		build func() (*network.Network, error)
		batch int
	}{{workloads.LeNet, 128}, {workloads.Cifar10, 8}, {workloads.AlexNet, 4}} {
		full, err := tg.build()
		if err != nil {
			b.Fatal(err)
		}
		net, err := full.WithBatch(tg.batch)
		if err != nil {
			b.Fatal(err)
		}
		for _, l := range net.Layers {
			if _, ok := l.(*layers.Conv); ok {
				continue
			}
			for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
				priced, _ := autotune.HostPrices().Layer(l, lay)
				name := fmt.Sprintf("%s@n%d/%s", strings.ToLower(net.Name), tg.batch, l.Name())
				if lay == tensor.CHWN {
					name += "-chwn"
				}
				b.Run(name, func(b *testing.B) {
					in, out := layerInput(l, lay), tensor.New(l.OutputShape(), lay)
					scratch := make([]float32, l.WorkspaceElems(lay))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := l.ForwardInto(in, out, scratch); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(priced*1e9, "priced_ns")
				})
				if bl, ok := l.(layers.BackwardLayer); ok {
					b.Run(name+"/bwd", func(b *testing.B) {
						layerBackwardRate(b, bl, lay, priced)
					})
				}
			}
		}
	}
}

// layerInput is a [-1, 1) input for l in lay, rectified for an LRN layer: in
// AlexNet every LRN follows a ReLU, so about half its inputs are zero, and the
// layer skips the power of a zero.
func layerInput(l layers.Layer, lay tensor.Layout) *tensor.Tensor {
	in := tensor.Random(l.InputShape(), lay, 1)
	if _, ok := l.(*layers.LRN); ok {
		for i, v := range in.Data {
			in.Data[i] = max(v, 0)
		}
	}
	return in
}

// BenchmarkStreamRead is the host's roofline row: it reads a float32 slice as
// large as AlexNet's fc6 weights (4096 rows of 9216, 151 MB) through
// par.Planes, one row a plane as the fully-connected forward walks them, and
// reports GB/s.  `LayerRates/alexnet@n4/fc6` streams the same bytes once, so
// this read bounds it from below.
func BenchmarkStreamRead(b *testing.B) {
	const rows, cols = 4096, 9216
	job := streamJob{data: make([]float32, rows*cols), sums: make([]float32, rows), cols: cols}
	for i := range job.data {
		job.data[i] = float32(i % 7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.Planes(rows, job, streamRow)
	}
	b.ReportMetric(float64(4*rows*cols)/1e9/(b.Elapsed().Seconds()/float64(b.N)), "GB/s")
}

// streamJob is one BenchmarkStreamRead pass: the rows and one sum per row.
type streamJob struct {
	data, sums []float32
	cols       int
}

// streamRow sums row r in four lanes, so the adds keep up with the reads.
func streamRow(j streamJob, r int) {
	row := j.data[r*j.cols : (r+1)*j.cols]
	var a0, a1, a2, a3 float32
	for k := 0; k+4 <= len(row); k += 4 {
		a0 += row[k]
		a1 += row[k+1]
		a2 += row[k+2]
		a3 += row[k+3]
	}
	j.sums[r] = a0 + a1 + a2 + a3
}

// layerBackwardRate times what a training step runs for l beyond its forward
// (its data gradient, and a trainable layer's parameter gradient too) on lay
// tensors, and reports the price list's estimate for it: Prices.Step less
// the forward's price fwd, 0 where the list prices no step in lay.
func layerBackwardRate(b *testing.B, l layers.BackwardLayer, lay tensor.Layout, fwd float64) {
	in, dOut, dIn := layerInput(l, lay), tensor.Random(l.OutputShape(), lay, 2), tensor.New(l.InputShape(), lay)
	scratch := make([]float32, l.BackwardWorkspaceElems())
	tl, trainable := l.(layers.TrainableLayer)
	var dW *tensor.Tensor
	var gradScratch []float32
	if trainable {
		dW, gradScratch = tensor.New(tl.GradShape(), tensor.NCHW), make([]float32, tl.GradWorkspaceElems())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.BackwardDataInto(in, dOut, dIn, scratch); err != nil {
			b.Fatal(err)
		}
		if trainable {
			if err := tl.BackwardFilterInto(in, dOut, dW, gradScratch); err != nil {
				b.Fatal(err)
			}
		}
	}
	if step, ok := autotune.HostPrices().Step(l, lay); ok {
		b.ReportMetric((step-fwd)*1e9, "priced_ns")
	}
}

// TestSelectionRegret holds the compiler's one convolution kernel against
// measurement: on every shape and layout of convAlgShapes the im2col+GEMM
// kernel every program runs takes at most twice the time of the direct
// kernel it replaced (best of the calls each makes in 20 ms, at least five).  The margins between the
// kernels are 9–40× outside the per-call-dominated rows, so this is a check
// that direct belongs in no program, not a timing test of the kernels.
func TestSelectionRegret(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("times full convolutions; skipped with -short and under the race detector")
	}
	for _, s := range convAlgShapes {
		for _, lay := range s.layouts() {
			best := map[kernels.ConvAlgorithm]time.Duration{}
			for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm} {
				call := convAlgKernel(t, s.cfg, lay, alg)
				// At least five calls, and calls for at least 20 ms: a few
				// microsecond calls in a fresh process read up to 4× their
				// steady time on this shared host.
				for i, began := 0, time.Now(); i == 0 || best[alg] < 200*time.Millisecond && (i < 5 || time.Since(began) < 20*time.Millisecond); i++ {
					t0 := time.Now()
					if err := call(); err != nil {
						t.Fatal(err)
					}
					if d := time.Since(t0); i == 0 || d < best[alg] {
						best[alg] = d
					}
				}
			}
			selected := kernels.ConvAlgGemm
			fastest := selected
			for alg, d := range best {
				if d < best[fastest] {
					fastest = alg
				}
			}
			regret := float64(best[selected]) / float64(best[fastest])
			t.Logf("%s %v: direct %v, gemm %v; selected %v, regret %.2f", s.name, lay,
				best[kernels.ConvAlgDirect], best[kernels.ConvAlgGemm], selected, regret)
			if regret > 2 {
				t.Errorf("%s in %v: the compiler runs %v (%v), %v runs in %v: regret %.2f > 2",
					s.name, lay, selected, best[selected], fastest, best[fastest], regret)
			}
		}
	}
}

// TestLayoutRegret holds the selection's layouts against measurement: on
// Cifar10 at batch 1, 2, 4 and 8 and LeNet at 16 and 128, the program compiled
// the way the benchmark compiles it (the optimised plan, then selection) runs
// within 1.25× of the faster of the two single-layout programs, all-NCHW and
// all-CHWN.  Times are the
// best of several alternating runs; where the selection picked one of the
// single-layout programs, the two are one program, timed once.
func TestLayoutRegret(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("times whole programs; skipped with -short and under the race detector")
	}
	type target struct {
		build func() (*network.Network, error)
		batch int
	}
	var targets []target
	for _, n := range []int{1, 2, 4, 8} {
		targets = append(targets, target{workloads.Cifar10, n})
	}
	targets = append(targets, target{workloads.LeNet, 16}, target{workloads.LeNet, 128})
	for _, tg := range targets {
		full, err := tg.build()
		if err != nil {
			t.Fatal(err)
		}
		net, err := full.WithBatch(tg.batch)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := frameworks.Optimized(thresholds()).Plan(device(), net)
		if err != nil {
			t.Fatal(err)
		}
		selected, err := memruntime.CompileWithOptions(plan, memruntime.Options{ConvAlgorithms: true})
		if err != nil {
			t.Fatal(err)
		}
		// slot[i] is the timing of program i: a single-layout program with the
		// selected program's choices is that program, timed once.
		progs, slot := []*memruntime.Program{selected}, []int{0}
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			choices := memruntime.SelectChoices(net, memruntime.Uniform(net, lay), false, lay)
			if slices.Equal(choices, selected.Choices()) {
				slot = append(slot, 0)
				continue
			}
			p, err := memruntime.Compile(net, "all-"+lay.String(), choices, memruntime.Options{})
			if err != nil {
				t.Fatal(err)
			}
			slot = append(slot, len(progs))
			progs = append(progs, p)
		}
		in := tensor.Random(net.InputShape(), tensor.NCHW, 1)
		out := tensor.New(selected.OutputShape(), tensor.NCHW)
		execs := make([]*memruntime.Executor, len(progs))
		for i, p := range progs {
			execs[i] = memruntime.NewExecutor(p)
		}
		times := make([]time.Duration, len(progs))
		for round := 0; round < 21; round++ { // round 0 fills the arenas
			for i, exec := range execs {
				t0 := time.Now()
				if err := exec.RunInto(in, out); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0); round > 0 && (times[i] == 0 || d < times[i]) {
					times[i] = d
				}
			}
		}
		best := []time.Duration{times[slot[0]], times[slot[1]], times[slot[2]]}
		regret := float64(best[0]) / float64(min(best[1], best[2]))
		t.Logf("%s@%d: selected %v (%v), all-NCHW %v, all-CHWN %v: regret %.2f", net.Name, tg.batch, best[0], selected.Choices()[0], best[1], best[2], regret)
		if regret > 1.25 {
			t.Errorf("%s@%d: the selected program runs in %v, the faster single-layout one in %v: regret %.2f > 1.25",
				net.Name, tg.batch, best[0], min(best[1], best[2]), regret)
		}
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
