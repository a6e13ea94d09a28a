package core_test

import (
	"testing"

	"memcnn/internal/core"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func planNetwork(t *testing.T, name string, opts core.Options) (*network.ExecutionPlan, *network.Network) {
	t.Helper()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	net, ok := nets[name]
	if !ok {
		t.Fatalf("unknown network %s", name)
	}
	opt := core.NewOptimizer(opts)
	plan, err := opt.Plan(gpusim.TitanBlack(), net)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	return plan, net
}

func defaultOpts() core.Options {
	return core.Options{Thresholds: layout.TitanBlackThresholds()}
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
	if core.NewOptimizer(core.Options{}).Name() != "Opt" {
		t.Error("the optimiser should present itself as Opt")
	}
}

func TestOptimizerRejectsEmptyNetwork(t *testing.T) {
	opt := core.NewOptimizer(defaultOpts())
	if _, err := opt.Plan(gpusim.TitanBlack(), nil); err == nil {
		t.Error("planning a nil network must fail")
	}
}

func TestLeNetStaysInCHWN(t *testing.T) {
	// LeNet: batch 128 and tiny channel counts — every convolution and pool
	// prefers CHWN, so the plan should contain no transforms at all.
	plan, _ := planNetwork(t, "LeNet", defaultOpts())
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
	plan, _ := planNetwork(t, "AlexNet", defaultOpts())

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
	plan, _ := planNetwork(t, "VGG", defaultOpts())
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
	plan, _ := planNetwork(t, "AlexNet", defaultOpts())
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
	plan, _ := planNetwork(t, "AlexNet", core.Options{Thresholds: layout.Calibrate(gpusim.TitanBlack())})
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
		if _, err := core.NewOptimizer(core.Options{Thresholds: th}).Plan(gpusim.TitanBlack(), net); err == nil {
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
		plan, err := core.NewOptimizer(core.Options{Thresholds: tc.th}).Plan(tc.dev, net)
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
