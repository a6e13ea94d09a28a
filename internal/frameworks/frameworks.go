// Package frameworks emulates the layout and implementation policies of the
// GPU CNN libraries the paper compares against (Section II.B and VI.C):
//
//	cuda-convnet  — CHWN layout, direct convolution, its own pooling/softmax
//	Caffe         — NCHW layout, im2col+GEMM convolution
//	cuDNN-MM      — NCHW, GEMM mode
//	cuDNN-FFT     — NCHW, FFT mode, falling back to GEMM when it fails
//	cuDNN-FFT-T   — NCHW, FFT-Tiling mode, falling back to GEMM when it fails
//	cuDNN-Best    — NCHW, the fastest mode per layer
//	Opt           — the paper's optimiser: NCHW or CHWN per layer
//
// Every policy is a core.Policy value, a layout-to-kernels table that
// core.Policy.Plan plans, so the whole-network benchmarks price them all on
// identical network descriptions through one planner.  The FFT modes'
// fallback to GEMM is that planner's rule, not the policy's.
package frameworks

import (
	"memcnn/internal/core"
	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
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
func CudaConvnet() core.Policy {
	return core.Policy{Name: "cuda-convnet", Layouts: map[tensor.Layout]gpusim.CostOptions{
		tensor.CHWN: {Softmax: gpusim.SoftmaxThreadPerImage},
	}}
}

// Caffe returns the Caffe emulation: NCHW with im2col+GEMM convolutions and
// the framework's plain pooling and multi-kernel softmax.
func Caffe() core.Policy {
	return core.Policy{Name: "Caffe", Layouts: map[tensor.Layout]gpusim.CostOptions{
		tensor.NCHW: {Conv: gpusim.ConvGemmImpl, Softmax: gpusim.SoftmaxThreadPerImage},
	}}
}

// CuDNN returns the cuDNN v4 emulation in the requested convolution mode.
// The planner runs the MM mode on layers where an FFT mode fails, matching
// the paper's "falls back to the cuDNN-MM mode if failed" methodology.
func CuDNN(mode CuDNNMode) core.Policy {
	conv := gpusim.ConvGemmImpl
	switch mode {
	case CuDNNFFT:
		conv = gpusim.ConvFFTImpl
	case CuDNNFFTTiling:
		conv = gpusim.ConvFFTTilingImpl
	case CuDNNBest:
		conv = gpusim.ConvBestNCHW
	}
	return core.Policy{Name: mode.String(), Layouts: map[tensor.Layout]gpusim.CostOptions{
		tensor.NCHW: {Conv: conv, Pool: gpusim.PoolCuDNN, Softmax: gpusim.SoftmaxBlockPerImage},
	}}
}

// Optimized returns the paper's optimiser with the given layout thresholds:
// the paper's published ones or layout.Calibrate's for the device the plan is
// priced on.  It runs the fastest NCHW convolution mode in NCHW and the
// direct convolution with the register-reuse pooling kernel in CHWN, and the
// fused, parallel softmax in both.  Its Plan fails on invalid thresholds.
func Optimized(th layout.Thresholds) core.Policy {
	return core.Policy{Name: "Opt", Thresholds: th, Layouts: map[tensor.Layout]gpusim.CostOptions{
		tensor.NCHW: {Conv: gpusim.ConvBestNCHW, Softmax: gpusim.SoftmaxFusedParallel},
		tensor.CHWN: {Conv: gpusim.ConvDirectImpl, Pool: gpusim.PoolOptimized, Softmax: gpusim.SoftmaxFusedParallel},
	}}
}

// All returns the policies compared in Fig. 14, in presentation order.
func All(th layout.Thresholds) []core.Policy {
	return []core.Policy{
		CuDNN(CuDNNMM),
		CuDNN(CuDNNFFT),
		CuDNN(CuDNNFFTTiling),
		CudaConvnet(),
		CuDNN(CuDNNBest),
		Optimized(th),
	}
}
