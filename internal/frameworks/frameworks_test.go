package frameworks_test

import (
	"testing"

	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/workloads"
)

// estimateAll prices every planner of Fig. 14 on one network and returns the
// totals keyed by planner name.
func estimateAll(t *testing.T, d *gpusim.Device, net *network.Network) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, p := range frameworks.All(layout.TitanBlackThresholds()) {
		plan, err := p.Plan(d, net)
		if err != nil {
			t.Fatalf("%s on %s: %v", p.Name, net.Name, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%s on %s: %v", p.Name, net.Name, err)
		}
		est, err := plan.Estimate()
		if err != nil {
			t.Fatalf("%s on %s: %v", p.Name, net.Name, err)
		}
		out[p.Name] = est.TotalUS
	}
	return out
}

func TestAllPlannersCoverEveryNetwork(t *testing.T) {
	d := gpusim.TitanBlack()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.NetworkOrder {
		times := estimateAll(t, d, nets[name])
		if len(times) != 6 {
			t.Fatalf("%s: expected 6 planners, got %d", name, len(times))
		}
		for planner, us := range times {
			if us <= 0 {
				t.Errorf("%s/%s: non-positive time %v", name, planner, us)
			}
		}
	}
}

func TestOptimizedWinsOnEveryNetwork(t *testing.T) {
	// The headline result of Fig. 14: with flexible data layouts plus the
	// pooling/softmax optimisations, the optimised framework achieves the
	// best performance on all five networks.
	d := gpusim.TitanBlack()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.NetworkOrder {
		times := estimateAll(t, d, nets[name])
		opt := times["Opt"]
		for planner, us := range times {
			if planner == "Opt" {
				continue
			}
			if opt > us*1.001 {
				t.Errorf("%s: Opt (%.0fus) loses to %s (%.0fus)", name, opt, planner, us)
			}
		}
	}
}

func TestFixedLayoutsWinOnlyOnSomeNetworks(t *testing.T) {
	// Fig. 14's other observation: each fixed-layout library is only good
	// for a subset of the networks.  cuda-convnet (CHWN) clearly beats
	// cuDNN-MM on the small-channel, batch-128 networks (LeNet, Cifar10),
	// while cuDNN (NCHW) clearly beats cuda-convnet on the deep ImageNet
	// networks (AlexNet, ZFNet, VGG).
	d := gpusim.TitanBlack()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"LeNet", "Cifar10"} {
		times := estimateAll(t, d, nets[name])
		if times["cuda-convnet"] >= times["cuDNN-MM"] {
			t.Errorf("%s: cuda-convnet (%.0fus) should beat cuDNN-MM (%.0fus)", name, times["cuda-convnet"], times["cuDNN-MM"])
		}
	}
	// ZFNet is close to a tie in the cost model (its huge first layer and
	// pooling layers favour CHWN while the deep layers favour NCHW), so the
	// strict ordering is asserted on AlexNet and VGG only.
	for _, name := range []string{"AlexNet", "VGG"} {
		times := estimateAll(t, d, nets[name])
		if times["cuDNN-Best"] >= times["cuda-convnet"] {
			t.Errorf("%s: cuDNN-Best (%.0fus) should beat cuda-convnet (%.0fus)", name, times["cuDNN-Best"], times["cuda-convnet"])
		}
	}
}

func TestLeNetSpeedupOverCuDNNIsLarge(t *testing.T) {
	// Section VI.C: for LeNet the optimised framework achieves a multi-x
	// speedup over cuDNN-MM (the paper reports 5.61x).
	d := gpusim.TitanBlack()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	times := estimateAll(t, d, nets["LeNet"])
	speedup := times["cuDNN-MM"] / times["Opt"]
	if speedup < 2 {
		t.Errorf("LeNet speedup over cuDNN-MM = %.2fx, expected a large factor", speedup)
	}
}

func TestCuDNNBestNeverLosesToOtherCuDNNModes(t *testing.T) {
	d := gpusim.TitanBlack()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.NetworkOrder {
		times := estimateAll(t, d, nets[name])
		best := times["cuDNN-Best"]
		for _, mode := range []string{"cuDNN-MM", "cuDNN-FFT", "cuDNN-FFT-T"} {
			if best > times[mode]*1.001 {
				t.Errorf("%s: cuDNN-Best (%.0fus) loses to %s (%.0fus)", name, best, mode, times[mode])
			}
		}
	}
}

func TestCuDNNFFTFallsBackOnOOMLayers(t *testing.T) {
	// ZFNet contains CONV5/CONV6-shaped layers whose FFT mode exceeds device
	// memory; the cuDNN-FFT emulation must plan exactly those on the MM mode
	// (as the paper's methodology describes) and keep the FFT mode on every
	// other convolution.
	d := gpusim.TitanBlack()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := frameworks.CuDNN(frameworks.CuDNNFFT).Plan(d, nets["ZFNet"])
	if err != nil {
		t.Fatalf("cuDNN-FFT must fall back instead of failing: %v", err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	fellBack := 0
	for _, pl := range plan.Layers {
		conv, ok := pl.Layer.(*layers.Conv)
		if !ok {
			continue
		}
		want := gpusim.ConvFFTImpl
		if _, err := gpusim.ConvFFTCost(d, conv.Cfg); err != nil {
			want = gpusim.ConvGemmImpl
			fellBack++
		}
		if pl.Options.Conv != want {
			t.Errorf("%s planned on %v, want %v", conv.Name(), pl.Options.Conv, want)
		}
	}
	if fellBack == 0 {
		t.Error("no ZFNet convolution exceeds device memory in the FFT mode: the test checks no fallback")
	}
}

func TestTitanXShowsSameTrends(t *testing.T) {
	// Section VI.C: the Titan X shows the same qualitative trends — the
	// optimised framework wins on both the small MNIST network and VGG.
	d := gpusim.TitanX()
	nets, err := workloads.Networks()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"LeNet", "VGG"} {
		out := make(map[string]float64)
		for _, p := range frameworks.All(layout.Calibrate(d)) { // calibrated on the Titan X model
			plan, err := p.Plan(d, nets[name])
			if err != nil {
				t.Fatalf("%s on %s: %v", p.Name, name, err)
			}
			est, err := plan.Estimate()
			if err != nil {
				t.Fatal(err)
			}
			out[p.Name] = est.TotalUS
		}
		for planner, us := range out {
			if planner == "Opt" {
				continue
			}
			if out["Opt"] > us*1.001 {
				t.Errorf("Titan X %s: Opt (%.0fus) loses to %s (%.0fus)", name, out["Opt"], planner, us)
			}
		}
	}
}

func TestCuDNNModeString(t *testing.T) {
	modes := []frameworks.CuDNNMode{frameworks.CuDNNMM, frameworks.CuDNNFFT, frameworks.CuDNNFFTTiling, frameworks.CuDNNBest, frameworks.CuDNNMode(9)}
	for _, m := range modes {
		if m.String() == "" {
			t.Error("CuDNNMode.String must not be empty")
		}
	}
}

func TestPlannerNames(t *testing.T) {
	want := map[string]bool{
		"cuDNN-MM": true, "cuDNN-FFT": true, "cuDNN-FFT-T": true,
		"cuda-convnet": true, "cuDNN-Best": true, "Opt": true,
	}
	for _, p := range frameworks.All(layout.TitanBlackThresholds()) {
		if !want[p.Name] {
			t.Errorf("unexpected planner name %q", p.Name)
		}
		delete(want, p.Name)
	}
	if len(want) != 0 {
		t.Errorf("missing planners: %v", want)
	}
}
