package gpusim

import (
	"fmt"

	"memcnn/internal/kernels"
)

// Convolution training cost models.  The paper notes (Section II.A, footnote
// 1) that the same data structures and convolution operations are used in the
// forward and backward passes, so the layout findings carry over to training;
// its Caffe integration is profiled on complete forward-backward iterations.

// ConvBackwardDataCHWNCost models the backward-data pass of the direct
// convolution on the CHWN layout.  The access structure mirrors the forward
// kernel (the roles of C and K swap and the filter is traversed transposed),
// so the cost model reuses the forward machinery on the transposed
// configuration — exactly the paper's observation that forward and backward
// share layout behaviour.
func ConvBackwardDataCHWNCost(d *Device, cfg kernels.ConvConfig) KernelStats {
	cfg = cfg.WithDefaults()
	t := transposedConfig(cfg)
	s := ConvDirectCHWNCost(d, t)
	s.Name = fmt.Sprintf("direct-conv-bwd-data CHWN %s", cfg.String())
	return s
}

// ConvBackwardDataNCHWCost models the backward-data pass of the GEMM
// convolution (col2im after a GEMM with the transposed filter matrix).
func ConvBackwardDataNCHWCost(d *Device, cfg kernels.ConvConfig) []KernelStats {
	cfg = cfg.WithDefaults()
	t := transposedConfig(cfg)
	seq := ConvGemmNCHWCost(d, t)
	for i := range seq {
		seq[i].Name = fmt.Sprintf("gemm-conv-bwd-data NCHW %s (stage %d)", cfg.String(), i)
	}
	return seq
}

// transposedConfig returns the configuration of the backward-data convolution
// seen as a forward convolution: output channels become input channels and
// the spatial extent is the forward output's.  Degenerate sizes are clamped
// so the cost query stays well defined for very small layers.
func transposedConfig(cfg kernels.ConvConfig) kernels.ConvConfig {
	h, w := cfg.OutH(), cfg.OutW()
	if h < cfg.FH {
		h = cfg.FH
	}
	if w < cfg.FW {
		w = cfg.FW
	}
	padH, padW := cfg.FH-1-cfg.PadH, cfg.FW-1-cfg.PadW
	if padH < 0 {
		padH = 0
	}
	if padW < 0 {
		padW = 0
	}
	return kernels.ConvConfig{
		N: cfg.N, C: cfg.K, H: h, W: w,
		K: cfg.C, FH: cfg.FH, FW: cfg.FW,
		StrideH: 1, StrideW: 1,
		PadH: padH, PadW: padW,
	}
}

// ConvBackwardFilterCost models the weight-gradient kernel, which both
// libraries implement as a GEMM over the unrolled input:
// dW (K × C·FH·FW) = dOut (K × N·OutH·OutW) · unrolled(in)ᵀ.
func ConvBackwardFilterCost(d *Device, cfg kernels.ConvConfig) []KernelStats {
	cfg = cfg.WithDefaults()
	g := GemmCostConfig{M: cfg.K, N: cfg.ReductionLength(), K: cfg.N * cfg.OutH() * cfg.OutW()}
	gemm := GemmCost(d, g)
	gemm.Name = fmt.Sprintf("conv-bwd-filter %s", cfg.String())
	if cfg.FH == 1 && cfg.FW == 1 && cfg.StrideH == 1 && cfg.StrideW == 1 {
		return []KernelStats{gemm}
	}
	return []KernelStats{Im2colCost(d, cfg), gemm}
}

// ConvTrainingCost returns the kernel sequence of one training step of a
// convolutional layer (forward + backward-data + backward-filter) in the
// given layout, the quantity the paper's complete forward-backward profiling
// measures.
func ConvTrainingCost(d *Device, cfg kernels.ConvConfig, chwn bool) []KernelStats {
	bwdFilter := ConvBackwardFilterCost(d, cfg)
	if chwn {
		// cuda-convnet's weight-gradient kernel works on the CHWN data
		// directly (no unroll step), so only the GEMM-equivalent part of the
		// weight-gradient cost applies.
		return []KernelStats{
			ConvDirectCHWNCost(d, cfg),
			ConvBackwardDataCHWNCost(d, cfg),
			bwdFilter[len(bwdFilter)-1],
		}
	}
	seq := ConvGemmNCHWCost(d, cfg)
	seq = append(seq, ConvBackwardDataNCHWCost(d, cfg)...)
	seq = append(seq, bwdFilter...)
	return seq
}
