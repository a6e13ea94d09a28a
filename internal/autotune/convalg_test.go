package autotune

import (
	"fmt"
	"math"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// selectConvAlgorithm is what the selection's dynamic program takes for a
// convolution whose layout is fixed: the algorithm the host price list prices
// cheapest in lay, direct on a tie.
func selectConvAlgorithm(cfg kernels.ConvConfig, lay tensor.Layout) kernels.ConvAlgorithm {
	best, bestT := kernels.ConvAlgDirect, math.Inf(1)
	for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm} {
		if t, ok := HostPrices().Conv(cfg, lay, alg); ok && t < bestT {
			best, bestT = alg, t
		}
	}
	return best
}

// estimates prints the two prices of a layer for a failure message.
func estimates(cfg kernels.ConvConfig, lay tensor.Layout) string {
	s := ""
	for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgDirect, kernels.ConvAlgGemm} {
		t, ok := HostPrices().Conv(cfg, lay, alg)
		s += fmt.Sprintf(" %v %.3g s (%t)", alg, t, ok)
	}
	return s
}

// TestSelectConvAlgorithm pins the selector to facts measured on this host
// (the times are BenchmarkConvAlgorithms' and the sizing runs' of the change
// that introduced the price table; the one-image and tiny cases re-timed once
// every layout ran the GEMM lane loop): GEMM wherever there is work to spread
// the unroll over, direct where one fan-out is the whole cost.
func TestSelectConvAlgorithm(t *testing.T) {
	cases := []struct {
		name string
		cfg  kernels.ConvConfig
		lay  tensor.Layout
		want kernels.ConvAlgorithm
	}{
		// 1.6 ms batch-folded GEMM against 14–25 ms direct, a reduction of 25.
		{"LeNet conv1 @128, CHWN", kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 20, FH: 5, FW: 5}, tensor.CHWN, kernels.ConvAlgGemm},
		{"LeNet conv1 @128, NCHW", kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 20, FH: 5, FW: 5}, tensor.NCHW, kernels.ConvAlgGemm},
		{"Cifar10 conv2 @8", kernels.ConvConfig{N: 8, C: 64, H: 11, W: 11, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}, tensor.NCHW, kernels.ConvAlgGemm},
		// 75 GFLOP/s GEMM against 3.6 direct.
		{"AlexNet conv2 @64", kernels.ConvConfig{N: 64, C: 96, H: 27, W: 27, K: 256, FH: 5, FW: 5, PadH: 2, PadW: 2}, tensor.NCHW, kernels.ConvAlgGemm},
		{"AlexNet conv3 @4", kernels.ConvConfig{N: 4, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3, PadH: 1, PadW: 1}, tensor.NCHW, kernels.ConvAlgGemm},
		{"VGG conv3_1 @32", kernels.ConvConfig{N: 32, C: 128, H: 56, W: 56, K: 256, FH: 3, FW: 3, PadH: 1, PadW: 1}, tensor.NCHW, kernels.ConvAlgGemm},
		// One small image with a deep reduction: 0.11 ms GEMM, 0.73 ms direct.
		{"deep, one 8x8 image", kernels.ConvConfig{N: 1, C: 64, H: 8, W: 8, K: 32, FH: 3, FW: 3}, tensor.NCHW, kernels.ConvAlgGemm},
		// 4.4–5.9 µs direct against 5.6–5.8 µs GEMM (a fan-out of two lanes
		// and the unroll): about a tie, which the list leaves to direct.
		{"one 8x8 image, K=2", kernels.ConvConfig{N: 1, C: 1, H: 8, W: 8, K: 2, FH: 3, FW: 3}, tensor.NCHW, kernels.ConvAlgDirect},
		// 13–16 µs GEMM against 23–31 µs direct.
		{"one 12x12 image, K=4", kernels.ConvConfig{N: 1, C: 3, H: 12, W: 12, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1}, tensor.NCHW, kernels.ConvAlgGemm},
		// One fan-out for the whole batch: 70–135 µs direct, 49–114 µs GEMM,
		// about a tie, which the list leaves to direct.
		{"64 tiny images, NCHW", kernels.ConvConfig{N: 64, C: 1, H: 8, W: 8, K: 2, FH: 3, FW: 3}, tensor.NCHW, kernels.ConvAlgDirect},
		// Filters as large as the image: 17–27 GFLOP/s GEMM against 3.9
		// direct (and 12–18 for the FFT kernel the compiler no longer runs).
		{"31x31 filters on 32x32 images", kernels.ConvConfig{N: 4, C: 8, H: 32, W: 32, K: 16, FH: 31, FW: 31, PadH: 15, PadW: 15}, tensor.NCHW, kernels.ConvAlgGemm},
		{"invalid", kernels.ConvConfig{}, tensor.NCHW, kernels.ConvAlgDirect},
	}
	for _, tc := range cases {
		if got := selectConvAlgorithm(tc.cfg, tc.lay); got != tc.want {
			t.Errorf("%s: selected %v, want %v (estimates:%s)", tc.name, got, tc.want, estimates(tc.cfg, tc.lay))
		}
	}
}

// TestLayerPricesEveryKindInBothLayouts checks which candidates the price
// list offers the selection: every layer kind of the workload networks has a
// positive price in NCHW and CHWN and none in a layout past tensor.Layouts,
// and a layer other than a convolution only on its own kernel.
func TestLayerPricesEveryKindInBothLayouts(t *testing.T) {
	net, err := workloads.AlexNetWithBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, l := range net.Layers {
		kind := fmt.Sprintf("%T", l)
		kinds[kind] = true
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			if s, ok := HostPrices().Layer(l, lay, kernels.ConvAlgDirect); !ok || !(s > 0) {
				t.Errorf("%s (%s) in %v: price %g, %t", l.Name(), kind, lay, s, ok)
			}
		}
		if _, ok := HostPrices().Layer(l, tensor.Layout(9), kernels.ConvAlgDirect); ok {
			t.Errorf("%s (%s) is priced in %v", l.Name(), kind, tensor.Layout(9))
		}
		_, conv := l.(*layers.Conv)
		if _, ok := HostPrices().Layer(l, tensor.NCHW, kernels.ConvAlgGemm); ok != conv {
			t.Errorf("%s (%s): a GEMM price is %t", l.Name(), kind, ok)
		}
	}
	if len(kinds) != 6 {
		t.Errorf("AlexNet has layer kinds %v, want all six", kinds)
	}
}

// TestStepPricesTheGradients checks the training step's candidates: a step
// costs more than the layer's forward wherever both are priced, every layer
// kind of the workload networks has a step price in NCHW, and in CHWN all
// but the fully-connected layers (their filter gradient walks strides there)
// and the softmax (the loss gradient reads NCHW) do.
func TestStepPricesTheGradients(t *testing.T) {
	net, err := workloads.AlexNetWithBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range net.Layers {
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			fwd, _ := HostPrices().Layer(l, lay, kernels.ConvAlgDirect)
			step, ok := HostPrices().Step(l, lay, kernels.ConvAlgDirect)
			switch l.(type) {
			case *layers.FullyConnected, *layers.Softmax:
				if ok != (lay == tensor.NCHW) {
					t.Errorf("%s in %v: a step price is %t", l.Name(), lay, ok)
				}
			default:
				if !ok {
					t.Errorf("%s in %v has no step price", l.Name(), lay)
				}
			}
			if _, sm := l.(*layers.Softmax); ok && !sm && !(step > fwd) {
				t.Errorf("%s in %v: a step costs %g s, its forward %g s", l.Name(), lay, step, fwd)
			}
		}
	}
}
