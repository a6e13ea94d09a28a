// Package frameworks emulates the layout and implementation policies of the
// GPU CNN libraries the paper compares against (Section II.B and VI.C):
//
//	cuda-convnet  — CHWN layout, direct convolution, its own pooling/softmax
//	Caffe         — NCHW layout, im2col+GEMM convolution
//	cuDNN-MM      — NCHW, GEMM mode
//	cuDNN-FFT     — NCHW, FFT mode, falling back to GEMM when it fails
//	cuDNN-FFT-T   — NCHW, FFT-Tiling mode, falling back to GEMM when it fails
//	cuDNN-Best    — NCHW, the fastest mode per layer
//	Opt           — the paper's optimiser (internal/core)
//
// Every emulation is a network.Planner so the whole-network benchmarks can
// price them on identical network descriptions.
package frameworks

import (
	"memcnn/internal/core"
	"memcnn/internal/gpusim"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// CuDNNMode selects the convolution mode of the cuDNN emulation.
type CuDNNMode int

// The cuDNN convolution modes of Section VI.C.
const (
	CuDNNMM CuDNNMode = iota
	CuDNNFFT
	CuDNNFFTTiling
	CuDNNBest
)

// String names the mode the way the paper labels its bars.
func (m CuDNNMode) String() string {
	switch m {
	case CuDNNMM:
		return "cuDNN-MM"
	case CuDNNFFT:
		return "cuDNN-FFT"
	case CuDNNFFTTiling:
		return "cuDNN-FFT-T"
	case CuDNNBest:
		return "cuDNN-Best"
	default:
		return "cuDNN-?"
	}
}

// CudaConvnet returns the cuda-convnet2 emulation: everything in CHWN with
// the direct convolution and the library's own memory-bound kernels.
func CudaConvnet() network.Planner {
	return &network.FixedLayoutPlanner{
		PlannerName: "cuda-convnet",
		Layout:      tensor.CHWN,
		Options: func(l layers.Layer) gpusim.CostOptions {
			opts := gpusim.CostOptions{}
			if _, ok := l.(*layers.Softmax); ok {
				opts.Softmax = gpusim.SoftmaxThreadPerImage
			}
			return opts
		},
	}
}

// Caffe returns the Caffe emulation: NCHW with im2col+GEMM convolutions and
// the framework's plain pooling and multi-kernel softmax.
func Caffe() network.Planner {
	return &network.FixedLayoutPlanner{
		PlannerName: "Caffe",
		Layout:      tensor.NCHW,
		Options: func(l layers.Layer) gpusim.CostOptions {
			opts := gpusim.CostOptions{}
			switch l.(type) {
			case *layers.Conv:
				opts.Conv = gpusim.ConvGemmImpl
			case *layers.Softmax:
				opts.Softmax = gpusim.SoftmaxThreadPerImage
			}
			return opts
		},
	}
}

// CuDNN returns the cuDNN v4 emulation in the requested convolution mode.
// The FFT modes fall back to the MM mode on layers where they fail, matching
// the paper's "falls back to the cuDNN-MM mode if failed" methodology.
func CuDNN(mode CuDNNMode) network.Planner {
	conv := gpusim.ConvGemmImpl
	switch mode {
	case CuDNNFFT:
		conv = gpusim.ConvFFTImpl
	case CuDNNFFTTiling:
		conv = gpusim.ConvFFTTilingImpl
	case CuDNNBest:
		conv = gpusim.ConvBestNCHW
	}
	return &network.FixedLayoutPlanner{
		PlannerName: mode.String(),
		Layout:      tensor.NCHW,
		Options: func(l layers.Layer) gpusim.CostOptions {
			opts := gpusim.CostOptions{}
			switch l.(type) {
			case *layers.Conv:
				opts.Conv = conv
			case *layers.Pool:
				opts.Pool = gpusim.PoolCuDNN
			case *layers.Softmax:
				opts.Softmax = gpusim.SoftmaxBlockPerImage
			}
			return opts
		},
		Fallback: func(l layers.Layer, err error) (gpusim.CostOptions, bool) {
			if _, ok := l.(*layers.Conv); ok {
				return gpusim.CostOptions{Conv: gpusim.ConvGemmImpl}, true
			}
			return gpusim.CostOptions{}, false
		},
	}
}

// Optimized returns the paper's optimiser with the given layout thresholds:
// the paper's published ones or layout.Calibrate's for the device the plan is
// priced on.  Its Plan fails on invalid thresholds.
func Optimized(th layout.Thresholds) network.Planner {
	return core.NewOptimizer(core.Options{Thresholds: th})
}

// All returns the planners compared in Fig. 14, keyed in presentation order.
func All(th layout.Thresholds) []network.Planner {
	return []network.Planner{
		CuDNN(CuDNNMM),
		CuDNN(CuDNNFFT),
		CuDNN(CuDNNFFTTiling),
		CudaConvnet(),
		CuDNN(CuDNNBest),
		Optimized(th),
	}
}
