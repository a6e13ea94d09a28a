package gpusim

import (
	"fmt"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// ConvImpl selects the convolution implementation a cost query prices.
type ConvImpl int

// Convolution implementation choices (Section II.B).
const (
	// ConvAuto picks the conventional implementation for the layout: direct
	// convolution for CHWN, GEMM for NCHW.
	ConvAuto ConvImpl = iota
	// ConvDirectImpl is the cuda-convnet direct convolution (CHWN only).
	ConvDirectImpl
	// ConvGemmImpl is the Caffe/cuDNN im2col + GEMM mode (NCHW only).
	ConvGemmImpl
	// ConvFFTImpl is the cuDNN FFT mode (NCHW only); it can fail with
	// ErrOutOfMemory.
	ConvFFTImpl
	// ConvFFTTilingImpl is the cuDNN FFT-Tiling mode (NCHW only).
	ConvFFTTilingImpl
	// ConvBestNCHW cherry-picks the fastest NCHW mode that fits in memory
	// (BestNCHWConv), the policy of the paper's "cuDNN-Best" configuration.
	ConvBestNCHW
)

// String names the implementation.
func (i ConvImpl) String() string {
	switch i {
	case ConvAuto:
		return "auto"
	case ConvDirectImpl:
		return "direct"
	case ConvGemmImpl:
		return "gemm"
	case ConvFFTImpl:
		return "fft"
	case ConvFFTTilingImpl:
		return "fft-tiling"
	case ConvBestNCHW:
		return "best-nchw"
	default:
		return fmt.Sprintf("ConvImpl(%d)", int(i))
	}
}

// PoolImpl selects the pooling kernel a cost query prices.
type PoolImpl int

// Pooling implementation choices.
const (
	// PoolPlain is the library kernel for the layout: cuda-convnet's in CHWN,
	// Caffe's plain strided kernel in NCHW.
	PoolPlain PoolImpl = iota
	// PoolOptimized is the paper's register-reuse kernel (CHWN only); the
	// expansion factors come from CostOptions.PoolExpansion.
	PoolOptimized
	// PoolCuDNN is cuDNN's NCHW kernel, which adds the backward mask write;
	// the cuDNN framework emulation uses it.
	PoolCuDNN
)

// String names the implementation.
func (i PoolImpl) String() string {
	switch i {
	case PoolPlain:
		return "plain"
	case PoolOptimized:
		return "optimized"
	case PoolCuDNN:
		return "cudnn"
	default:
		return fmt.Sprintf("PoolImpl(%d)", int(i))
	}
}

// CostOptions selects the implementation variants for a cost query.  The zero
// value is the conventional library behaviour for the layout.
type CostOptions struct {
	Conv          ConvImpl
	Pool          PoolImpl
	PoolExpansion kernels.PoolExpansion // zero value lets the model pick 2x2
	Softmax       SoftmaxImpl
}

// LayerCost returns the modeled kernel sequence of layer l with its
// activations in layout lay and the implementations opts selects: the one
// per-layer price of the model, which the planners and ExecutionPlan.Estimate
// ask.  An error means the model has no such kernel (an implementation the
// layout does not offer, an FFT mode that exceeds device memory).
func LayerCost(d *Device, l layers.Layer, lay tensor.Layout, opts CostOptions) ([]KernelStats, error) {
	switch l := l.(type) {
	case *layers.Conv:
		return convCost(d, l, lay, opts.Conv)
	case *layers.Pool:
		return poolCost(d, l, lay, opts)
	case *layers.Softmax:
		return []KernelStats{SoftmaxCost(d, l.Cfg, opts.Softmax)}, nil
	case *layers.FullyConnected:
		// One SGEMM of (OutDim × InDim) by (InDim × Batch), whatever the layout.
		s := GemmCost(d, GemmCostConfig{M: l.OutDim, N: l.Batch, K: l.InDim})
		s.Name = fmt.Sprintf("fc %s %dx%d", l.LayerName, l.InDim, l.OutDim)
		return []KernelStats{s}, nil
	case *layers.ReLU:
		// One streaming pass, read + write.
		bytes := float64(l.Shape.Bytes())
		return []KernelStats{{
			Name:              "relu " + l.LayerName,
			GridBlocks:        ceilDiv(l.Shape.Elems(), 256),
			Block:             BlockResources{ThreadsPerBlock: 256, RegsPerThread: 16},
			Launches:          1,
			FLOPs:             float64(l.Shape.Elems()),
			ComputeEfficiency: 1,
			DRAMReadBytes:     bytes,
			DRAMWriteBytes:    bytes,
			UsefulReadBytes:   bytes,
			UsefulWriteBytes:  bytes,
		}}, nil
	case *layers.LRN:
		// The cross-channel window makes it read the neighbourhood of every
		// element; part of the re-reads hit in cache.
		bytes := float64(l.Shape.Bytes())
		return []KernelStats{{
			Name:              "lrn " + l.LayerName,
			GridBlocks:        ceilDiv(l.Shape.Elems(), 256),
			Block:             BlockResources{ThreadsPerBlock: 256, RegsPerThread: 32},
			Launches:          1,
			FLOPs:             float64(l.Shape.Elems()) * float64(2*l.LocalSize+10),
			ComputeEfficiency: 0.4,
			DRAMReadBytes:     bytes * 2,
			DRAMWriteBytes:    bytes,
			UsefulReadBytes:   bytes,
			UsefulWriteBytes:  bytes,
		}}, nil
	default:
		return nil, fmt.Errorf("gpusim: %s: no cost model for %T", l.Name(), l)
	}
}

// convCost prices a convolution: the direct kernel in CHWN, the selected
// mode (GEMM by default) in NCHW.
func convCost(d *Device, c *layers.Conv, lay tensor.Layout, impl ConvImpl) ([]KernelStats, error) {
	if lay == tensor.CHWN {
		if impl != ConvAuto && impl != ConvDirectImpl {
			return nil, fmt.Errorf("gpusim: %s: %v convolution is not available in the CHWN layout", c.Name(), impl)
		}
		return []KernelStats{ConvDirectCHWNCost(d, c.Cfg)}, nil
	}
	switch impl {
	case ConvAuto, ConvGemmImpl:
		return ConvGemmNCHWCost(d, c.Cfg), nil
	case ConvFFTImpl:
		return ConvFFTCost(d, c.Cfg)
	case ConvFFTTilingImpl:
		return ConvFFTTilingCost(d, c.Cfg)
	case ConvBestNCHW:
		seq, _ := BestNCHWConv(d, c.Cfg)
		return seq, nil
	default:
		return nil, fmt.Errorf("gpusim: %s: %v convolution is not available in the NCHW layout", c.Name(), impl)
	}
}

// poolCost prices a pooling layer: the library kernel of the layout, the
// coarsened kernel (CHWN only) or cuDNN's (NCHW only).
func poolCost(d *Device, p *layers.Pool, lay tensor.Layout, opts CostOptions) ([]KernelStats, error) {
	switch {
	case opts.Pool == PoolOptimized && lay != tensor.CHWN:
		return nil, fmt.Errorf("gpusim: %s: the optimised pooling kernel requires the CHWN layout", p.Name())
	case opts.Pool == PoolOptimized:
		e := opts.PoolExpansion
		if e.H <= 0 || e.W <= 0 {
			e = kernels.PoolExpansion{H: 2, W: 2}
		}
		return []KernelStats{PoolCHWNCoarsenedCost(d, p.Cfg, e)}, nil
	case lay == tensor.NCHW:
		return []KernelStats{PoolNCHWCost(d, p.Cfg, opts.Pool)}, nil
	case opts.Pool == PoolCuDNN:
		return nil, fmt.Errorf("gpusim: %s: the cuDNN pooling kernel uses the NCHW layout", p.Name())
	default:
		return []KernelStats{PoolCHWNCost(d, p.Cfg)}, nil
	}
}
