package core_test

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/autotune"
	"memcnn/internal/core"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func planNetwork(t *testing.T, name string, th layout.Thresholds) (*network.ExecutionPlan, *network.Network) {
	t.Helper()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	net, ok := nets[name]
	if !ok {
		t.Fatalf("unknown network %s", name)
	}
	plan, err := frameworks.Optimized(th).Plan(gpusim.TitanBlack(), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return plan, net
}

func layoutOf(plan *network.ExecutionPlan, layerName string) (tensor.Layout, bool) {
	for _, pl := range plan.Layers {
		if pl.Layer.Name() == layerName {
			return pl.Layout, true
		}
	}
	return 0, false
}

func TestOptimizerNamesItself(t *testing.T) {
	if frameworks.Optimized(layout.Thresholds{}).Name != "Opt" {
		t.Error("the optimiser should present itself as Opt")
	}
}

func TestOptimizerRejectsEmptyNetwork(t *testing.T) {
	if _, err := frameworks.Optimized(layout.TitanBlackThresholds()).Plan(gpusim.TitanBlack(), nil); err == nil {
		t.Error("planning a nil network must fail")
	}
}

func TestLeNetStaysInCHWN(t *testing.T) {
	// LeNet: batch 128 and tiny channel counts — every convolution and pool
	// prefers CHWN, so the plan should contain no transforms at all.
	plan, _ := planNetwork(t, "LeNet", layout.TitanBlackThresholds())
	for _, pl := range plan.Layers {
		switch pl.Layer.(type) {
		case *layers.Conv, *layers.Pool:
			if pl.Layout != tensor.CHWN {
				t.Errorf("layer %q planned in %v, want CHWN", pl.Layer.Name(), pl.Layout)
			}
		}
	}
	if got := plan.TransformCount(); got != 0 {
		t.Errorf("LeNet plan contains %d transforms, want 0", got)
	}
}

func TestAlexNetMixesLayouts(t *testing.T) {
	// Fig. 15: the optimiser selects CHWN for conv1 and NCHW for the
	// remaining convolutions, CHWN for the pooling layers, and therefore
	// needs a handful of layout transformations.
	plan, _ := planNetwork(t, "AlexNet", layout.TitanBlackThresholds())

	if lay, ok := layoutOf(plan, "conv1"); !ok || lay != tensor.CHWN {
		t.Errorf("conv1 layout = %v, want CHWN", lay)
	}
	for _, name := range []string{"conv2", "conv3", "conv4", "conv5"} {
		if lay, ok := layoutOf(plan, name); !ok || lay != tensor.NCHW {
			t.Errorf("%s layout = %v, want NCHW", name, lay)
		}
	}
	for _, name := range []string{"pool1", "pool2", "pool5"} {
		if lay, ok := layoutOf(plan, name); !ok || lay != tensor.CHWN {
			t.Errorf("%s layout = %v, want CHWN", name, lay)
		}
	}
	if got := plan.TransformCount(); got < 3 {
		t.Errorf("AlexNet plan contains %d transforms, expected several (layouts are mixed)", got)
	}
	// Transform overhead must stay a small fraction of the total time.
	est, err := plan.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.TransformUS > 0.15*est.TotalUS {
		t.Errorf("transform overhead %.0fus is more than 15%% of the total %.0fus", est.TransformUS, est.TotalUS)
	}
}

func TestVGGUsesNCHWForDeepLayers(t *testing.T) {
	plan, _ := planNetwork(t, "VGG", layout.TitanBlackThresholds())
	if lay, ok := layoutOf(plan, "conv1_1"); !ok || lay != tensor.CHWN {
		t.Errorf("conv1_1 layout = %v, want CHWN (C=3)", lay)
	}
	for _, name := range []string{"conv3_1", "conv4_1", "conv5_1"} {
		if lay, ok := layoutOf(plan, name); !ok || lay != tensor.NCHW {
			t.Errorf("%s layout = %v, want NCHW", name, lay)
		}
	}
}

func TestOptimizerUsesOptimizedKernels(t *testing.T) {
	plan, _ := planNetwork(t, "AlexNet", layout.TitanBlackThresholds())
	for _, pl := range plan.Layers {
		switch pl.Layer.(type) {
		case *layers.Pool:
			if pl.Layout == tensor.CHWN && pl.Options.Pool != gpusim.PoolOptimized {
				t.Errorf("pool %q should use the optimised kernel", pl.Layer.Name())
			}
		case *layers.Softmax:
			if pl.Options.Softmax.String() != "fused+parallel" {
				t.Errorf("softmax should use the fused, parallelised kernel, got %v", pl.Options.Softmax)
			}
		}
	}
}

func TestCalibratedThresholdsMixLayouts(t *testing.T) {
	// With the thresholds the one-time calibration derives from the device
	// model, the plan must still mix layouts sensibly for AlexNet.
	plan, _ := planNetwork(t, "AlexNet", layout.Calibrate(gpusim.TitanBlack()))
	if lay, ok := layoutOf(plan, "conv1"); !ok || lay != tensor.CHWN {
		t.Errorf("calibrated thresholds: conv1 layout = %v, want CHWN", lay)
	}
	if lay, ok := layoutOf(plan, "conv4"); !ok || lay != tensor.NCHW {
		t.Errorf("calibrated thresholds: conv4 layout = %v, want NCHW", lay)
	}
}

func TestPlanRejectsInvalidThresholds(t *testing.T) {
	// The optimiser does not calibrate behind the caller's back: unset or
	// invalid thresholds are an error naming them, not a silent calibration.
	net, err := workloads.LeNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []layout.Thresholds{{}, {Ct: 32}, {Ct: -1, Nt: 128}} {
		if _, err := frameworks.Optimized(th).Plan(gpusim.TitanBlack(), net); err == nil {
			t.Errorf("thresholds %v: Plan succeeded, want an error", th)
		}
	}
}

// TestPlanHasNoInputTransform: the network's input is written in whatever
// layout the first layer takes, so no plan transforms it, not even where the
// first layer leaves its preferred layout (TinyNet's conv1 prefers CHWN, and
// the next layers pull it into NCHW).
func TestPlanHasNoInputTransform(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dev *gpusim.Device
		th  layout.Thresholds
	}{{gpusim.TitanBlack(), layout.TitanBlackThresholds()}, {gpusim.TitanX(), layout.TitanXThresholds()}} {
		plan, err := frameworks.Optimized(tc.th).Plan(tc.dev, net)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("%s: %v", tc.dev.Name, err)
		}
		if pl := plan.Layers[0]; pl.Transform != nil {
			t.Errorf("%s: the plan transforms the input into %v before %q", tc.dev.Name, pl.Layout, pl.Layer.Name())
		}
	}
}

// layerPrices prices every layer of net in NCHW and in CHWN under p's options
// for that layout: its time in the plan of p cut to that one layout.
func layerPrices(t *testing.T, d *gpusim.Device, p core.Policy, net *network.Network) map[tensor.Layout][]float64 {
	t.Helper()
	prices := map[tensor.Layout][]float64{}
	for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		one := core.Policy{Name: p.Name, Layouts: map[tensor.Layout]gpusim.CostOptions{lay: p.Layouts[lay]}}
		plan, err := one.Plan(d, net)
		if err != nil {
			t.Fatal(err)
		}
		est, err := plan.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		for _, lt := range est.PerLayer {
			prices[lay] = append(prices[lay], lt.TimeUS)
		}
	}
	return prices
}

// transformUS prices the fastest transformation of l's input between two
// layouts, 0 between equal ones.
func transformUS(t *testing.T, d *gpusim.Device, l layers.Layer, from, to tensor.Layout) float64 {
	t.Helper()
	if from == to {
		return 0
	}
	stats, _, err := gpusim.BestTransform(d, l.InputShape(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	return gpusim.EstimateTime(d, stats).TotalUS
}

// optimumUS is the cheapest modeled total of any assignment of NCHW and CHWN
// to the layers, the input free in either: a plain min-plus pass over the
// chain, with no tie-break.
func optimumUS(t *testing.T, d *gpusim.Device, prices map[tensor.Layout][]float64, net *network.Network) float64 {
	best := map[tensor.Layout]float64{}
	for i, l := range net.Layers {
		next := map[tensor.Layout]float64{}
		for lay, us := range prices {
			in := math.Inf(1)
			if i == 0 {
				in = 0
			}
			for from, p := range best {
				in = min(in, p+transformUS(t, d, l, from, lay))
			}
			next[lay] = in + us[i]
		}
		best = next
	}
	total := math.Inf(1)
	for _, p := range best {
		total = min(total, p)
	}
	return total
}

// heuristicUS prices the paper's heuristic list without its one-time check:
// every convolution in its (Ct, Nt) layout, every pool in CHWN, every other
// layer in the layout handed to it, walked from an NCHW input, and a
// transformation wherever the layout changes.
func heuristicUS(t *testing.T, d *gpusim.Device, th layout.Thresholds, prices map[tensor.Layout][]float64, net *network.Network) float64 {
	total, cur := 0.0, tensor.NCHW
	for i, l := range net.Layers {
		lay := cur
		switch lt := l.(type) {
		case *layers.Conv:
			lay = layout.PreferredConvLayout(lt.Cfg, th)
		case *layers.Pool:
			lay = layout.PreferredPoolLayout(lt.Cfg)
		}
		total += prices[lay][i]
		if i > 0 {
			total += transformUS(t, d, l, cur, lay)
		}
		cur = lay
	}
	return total
}

// TestPlanIsTheChainOptimum: on the five networks and TinyNet at their own
// batches, and on the workloads' batches where a first layer leaves its
// preferred layout, on both Titans under the paper's and the calibrated
// thresholds, the optimiser's modeled total is the cheapest any layout
// assignment reaches, and no dearer than the heuristic's list without the
// check.
func TestPlanIsTheChainOptimum(t *testing.T) {
	var nets []*network.Network
	for _, name := range []string{"TinyNet", "LeNet", "Cifar10", "AlexNet", "ZFNet", "VGG"} {
		net, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, w := range []struct {
		name  string
		batch int
	}{{"AlexNet", 4}, {"Cifar10", 8}, {"LeNet", 16}} {
		net, err := workloads.ByName(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if net, err = net.WithBatch(w.batch); err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for _, d := range []*gpusim.Device{gpusim.TitanBlack(), gpusim.TitanX()} {
		paper := layout.TitanBlackThresholds()
		if d.Name == gpusim.TitanX().Name {
			paper = layout.TitanXThresholds()
		}
		for _, th := range []layout.Thresholds{paper, layout.Calibrate(d)} {
			opt := frameworks.Optimized(th)
			for _, net := range nets {
				plan, err := opt.Plan(d, net)
				if err != nil {
					t.Fatal(err)
				}
				est, err := plan.Estimate()
				if err != nil {
					t.Fatal(err)
				}
				prices := layerPrices(t, d, opt, net)
				at := fmt.Sprintf("%s %v %s@%d", d.Name, th, net.Name, net.InputShape().N)
				if want := optimumUS(t, d, prices, net); !autotune.Ties(est.TotalUS, want) {
					t.Errorf("%s: plan prices %.4f us, the cheapest assignment %.4f", at, est.TotalUS, want)
				}
				if h := heuristicUS(t, d, th, prices, net); est.TotalUS > h && !autotune.Ties(est.TotalUS, h) {
					t.Errorf("%s: plan prices %.4f us, the heuristic's list %.4f", at, est.TotalUS, h)
				}
			}
		}
	}
}

// TestSingleLayoutPolicyPlansEveryLayer: a policy with one layout plans every
// layer in it with no transformation, and the plan's estimate covers every
// layer and adds up to its total.
func TestSingleLayoutPolicyPlansEveryLayer(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		policy := core.Policy{Name: "all-" + lay.String(), Layouts: map[tensor.Layout]gpusim.CostOptions{lay: {}}}
		plan, err := policy.Plan(gpusim.TitanBlack(), net)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, pl := range plan.Layers {
			if pl.Layout != lay {
				t.Errorf("%s: layer %q planned in %v", policy.Name, pl.Layer.Name(), pl.Layout)
			}
		}
		if n := plan.TransformCount(); n != 0 {
			t.Errorf("%s: %d transforms, want 0", policy.Name, n)
		}
		est, err := plan.Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if len(est.PerLayer) != len(net.Layers) || est.TotalUS <= 0 {
			t.Fatalf("%s: estimate covers %d of %d layers, total %v us", policy.Name, len(est.PerLayer), len(net.Layers), est.TotalUS)
		}
		var sum float64
		for _, lt := range est.PerLayer {
			sum += lt.Total()
		}
		if math.Abs(sum-est.TotalUS) > 1e-6 {
			t.Errorf("%s: per-layer times add up to %v us, the total is %v", policy.Name, sum, est.TotalUS)
		}
	}
}

// TestPlannedLayersRecordTheirLayoutsOptions: every planned layer records the
// options of the layout it runs in, with the expansion factors tuned for it
// where that layout runs the optimised pooling kernel.
func TestPlannedLayersRecordTheirLayoutsOptions(t *testing.T) {
	d := gpusim.TitanBlack()
	policy := frameworks.Optimized(layout.TitanBlackThresholds())
	plan, _ := planNetwork(t, "AlexNet", layout.TitanBlackThresholds())
	tuned := 0
	for _, pl := range plan.Layers {
		want := policy.Layouts[pl.Layout]
		if p, ok := pl.Layer.(*layers.Pool); ok && want.Pool == gpusim.PoolOptimized {
			e, _, err := autotune.TunePoolExpansion(p.Cfg, gpusim.PoolCoarsenedTimeUS(d, p.Cfg))
			if err != nil {
				t.Fatal(err)
			}
			want.PoolExpansion = e
			tuned++
		}
		if pl.Options != want {
			t.Errorf("layer %q in %v records %+v, want %+v", pl.Layer.Name(), pl.Layout, pl.Options, want)
		}
	}
	if tuned == 0 {
		t.Error("no pool ran the optimised kernel")
	}
}

// TestOutOfMemoryConvolutionFallsBackToGemm: a convolution whose FFT mode
// exceeds device memory is planned on the GEMM mode, as cuDNN falls back; a
// layer the layout cannot run for any other reason is not.
func TestOutOfMemoryConvolutionFallsBackToGemm(t *testing.T) {
	d := gpusim.TitanBlack()
	conv, err := layers.NewConv("conv1", kernels.ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New("deep", 64, conv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpusim.ConvFFTCost(d, conv.Cfg); err == nil {
		t.Fatal("the FFT mode of the test layer fits in device memory: the test checks nothing")
	}
	fft := core.Policy{Name: "fft", Layouts: map[tensor.Layout]gpusim.CostOptions{tensor.NCHW: {Conv: gpusim.ConvFFTImpl}}}
	plan, err := fft.Plan(d, net)
	if err != nil {
		t.Fatalf("the out-of-memory FFT convolution must fall back: %v", err)
	}
	if got := plan.Layers[0].Options.Conv; got != gpusim.ConvGemmImpl {
		t.Errorf("conv1 planned on %v, want %v", got, gpusim.ConvGemmImpl)
	}
	fftCHWN := core.Policy{Name: "fft-chwn", Layouts: map[tensor.Layout]gpusim.CostOptions{tensor.CHWN: {Conv: gpusim.ConvFFTImpl}}}
	if _, err := fftCHWN.Plan(d, net); err == nil {
		t.Error("an FFT convolution in CHWN, which the model has no kernel for, must fail, not fall back")
	}
}

// TestPolicyRejectsUnsupportedLayout: a policy that lists only a layout
// outside tensor.Layouts, or none at all, plans nothing.
func TestPolicyRejectsUnsupportedLayout(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	for _, layouts := range []map[tensor.Layout]gpusim.CostOptions{{tensor.Layout(9): {}}, {}} {
		if _, err := (core.Policy{Name: "p", Layouts: layouts}).Plan(gpusim.TitanBlack(), net); err == nil {
			t.Errorf("layouts %v: Plan succeeded, want an error (the layers run in NCHW and CHWN only)", layouts)
		}
	}
}
