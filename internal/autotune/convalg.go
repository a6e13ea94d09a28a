package autotune

import "memcnn/internal/kernels"

// Per-layer convolution algorithm selection: the CPU analogue of the paper's
// central observation that no single convolution strategy wins across layer
// shapes (Section II.B / IV.A).  The im2col+GEMM path inherits matrix
// multiplication's robustness but pays the unroll traffic, so it only wins
// once the merged matrix dimensions are large; the direct path has no
// transformation overhead and keeps small shapes cheap; the FFT path turns
// the spatial reduction into pointwise spectrum products, so it wins on big
// stride-1 layers with large filters and loses everywhere the transforms
// dominate.  The planned runtime (internal/runtime) asks this package which
// strategy each compiled conv op should record.

// Thresholds of the analytic heuristic.  They mirror the paper's
// matrix-expansion argument: the GEMM reduction dimension is C·FH·FW, and the
// layer's arithmetic volume is K · (N·OutH·OutW) · (C·FH·FW) multiply-adds.
// The reduction has to clear a floor before the unrolled matrix is more
// compute than transformation overhead, and the arithmetic volume has to
// amortise the per-image unroll, the GEMM setup and the goroutine fan-out.
const (
	// GemmMinReduction is the minimum C·FH·FW for the GEMM path; below it the
	// unrolled matrix is mostly transformation overhead (the small-C regime
	// where cuda-convnet's direct kernel wins in Fig. 3).
	GemmMinReduction = 32
	// GemmMinFMAs is the minimum K·N·OutH·OutW·C·FH·FW multiply-add count;
	// a tiny layer (one small image, few filters) finishes faster in the
	// transformation-free direct kernel than the unroll machinery can start.
	GemmMinFMAs = 1 << 20
	// FFTMinArea is the minimum FH·FW for the FFT path.  Frequency-domain
	// convolution amortises its transforms over the filter area (the spectrum
	// product costs the same for a 3×3 as for an 11×11 filter), so it only
	// beats GEMM once the filters are large — 5×5 and up, the AlexNet
	// conv2 / ZFNet 7×7 regime of Section IV.A.  Every 3×3 VGG-style layer
	// stays on GEMM.
	FFTMinArea = 25
	// FFTMinFMAs is the minimum multiply-add volume for the FFT path.  The
	// K·C filter transforms are a fixed cost independent of the batch, so the
	// layer needs serious arithmetic volume before they amortise; small nets
	// (LeNet/Cifar10-scale 5×5 layers) stay on direct or GEMM.
	FFTMinFMAs = 1 << 33
)

// SelectConvAlgorithm picks the CPU convolution strategy for a layer shape
// with the analytic merged-matrix heuristic.  The FFT regime is keyed on
// filter size and stride: frequency-domain convolution computes the dense
// stride-1 correlation, so any stride over one throws most of that work away
// and FFT is never chosen for it.
func SelectConvAlgorithm(cfg kernels.ConvConfig) kernels.ConvAlgorithm {
	if err := cfg.Validate(); err != nil {
		return kernels.ConvAlgDirect
	}
	red := cfg.ReductionLength()
	fmas := cfg.FLOPs() / 2
	sh, sw := cfg.StrideH, cfg.StrideW
	if sh == 0 {
		sh = 1
	}
	if sw == 0 {
		sw = 1
	}
	if sh == 1 && sw == 1 && cfg.FH*cfg.FW >= FFTMinArea && fmas >= FFTMinFMAs {
		return kernels.ConvAlgFFT
	}
	if red >= GemmMinReduction && fmas >= GemmMinFMAs {
		return kernels.ConvAlgGemm
	}
	return kernels.ConvAlgDirect
}
