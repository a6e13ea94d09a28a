package autotune

import (
	"testing"

	"memcnn/internal/kernels"
)

// TestSelectConvAlgorithm pins the two regimes the paper's Section IV.A
// argument predicts: a VGG-style mid-network layer (deep reduction, large
// output matrix) goes to im2col+GEMM, a single small image (nothing to
// amortise the unroll against) stays direct.
func TestSelectConvAlgorithm(t *testing.T) {
	vgg := kernels.ConvConfig{N: 32, C: 64, H: 56, W: 56, K: 128, FH: 3, FW: 3, PadH: 1, PadW: 1}
	if got := SelectConvAlgorithm(vgg); got != kernels.ConvAlgGemm {
		t.Errorf("VGG-style shape %v selected %v, want %v", vgg, got, kernels.ConvAlgGemm)
	}
	small := kernels.ConvConfig{N: 1, C: 3, H: 12, W: 12, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1}
	if got := SelectConvAlgorithm(small); got != kernels.ConvAlgDirect {
		t.Errorf("1-image small shape %v selected %v, want %v", small, got, kernels.ConvAlgDirect)
	}

	// A deep reduction alone is not enough: one tiny image keeps the
	// arithmetic volume under the floor.
	deepTiny := kernels.ConvConfig{N: 1, C: 64, H: 8, W: 8, K: 32, FH: 3, FW: 3}
	if got := SelectConvAlgorithm(deepTiny); got != kernels.ConvAlgDirect {
		t.Errorf("deep-but-tiny shape selected %v, want direct", got)
	}
	// A deep reduction over a small batch of small maps (the AlexNet conv3-5
	// regime at serving batch sizes) clears the volume floor and goes to GEMM.
	deepSmallBatch := kernels.ConvConfig{N: 4, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3, PadH: 1, PadW: 1}
	if got := SelectConvAlgorithm(deepSmallBatch); got != kernels.ConvAlgGemm {
		t.Errorf("deep small-batch shape selected %v, want gemm", got)
	}
	// A huge batch of single-channel 1x1-reduction maps stays direct too
	// (the LeNet first-layer regime where CHWN wins in Fig. 3).
	shallow := kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5, PadH: 2, PadW: 2}
	if got := SelectConvAlgorithm(shallow); got != kernels.ConvAlgDirect {
		t.Errorf("shallow-reduction shape selected %v, want direct", got)
	}
	// Invalid configurations fall back to direct instead of panicking.
	if got := SelectConvAlgorithm(kernels.ConvConfig{}); got != kernels.ConvAlgDirect {
		t.Errorf("invalid config selected %v, want direct", got)
	}
}

// TestSelectConvAlgorithmFFTRegime pins the FFT thresholds of Section IV.A:
// big stride-1 layers with large filters go to FFT, 3×3 layers and any
// strided layer never do.
func TestSelectConvAlgorithmFFTRegime(t *testing.T) {
	// AlexNet conv2 at the full serving batch: 5×5 stride-1, 28.7G FMAs.
	alexConv2 := kernels.ConvConfig{N: 64, C: 96, H: 27, W: 27, K: 256, FH: 5, FW: 5, PadH: 2, PadW: 2}
	if got := SelectConvAlgorithm(alexConv2); got != kernels.ConvAlgFFT {
		t.Errorf("AlexNet conv2 shape selected %v, want fft", got)
	}
	// The same arithmetic volume at stride 2 throws away 3/4 of the dense
	// correlation: never FFT.  (Quadruple the batch so the FMA volume still
	// clears the FFT floor — the stride must be what disqualifies it.)
	strided := kernels.ConvConfig{N: 256, C: 96, H: 27, W: 27, K: 256, FH: 5, FW: 5, PadH: 2, PadW: 2, StrideH: 2, StrideW: 2}
	if got := SelectConvAlgorithm(strided); got == kernels.ConvAlgFFT {
		t.Errorf("stride-2 shape selected fft; stride > 1 must never pick fft")
	}
	// AlexNet conv1: 11×11 but stride 4 — the large filter alone does not
	// qualify it.
	alexConv1 := kernels.ConvConfig{N: 64, C: 3, H: 227, W: 227, K: 96, FH: 11, FW: 11, StrideH: 4, StrideW: 4}
	if got := SelectConvAlgorithm(alexConv1); got == kernels.ConvAlgFFT {
		t.Errorf("AlexNet conv1 (stride 4) selected fft, want a spatial algorithm")
	}
	// VGG conv3_1: huge volume but 3×3 filters — stays GEMM.
	vgg := kernels.ConvConfig{N: 32, C: 128, H: 56, W: 56, K: 256, FH: 3, FW: 3, PadH: 1, PadW: 1}
	if got := SelectConvAlgorithm(vgg); got != kernels.ConvAlgGemm {
		t.Errorf("VGG 3x3 shape selected %v, want gemm", got)
	}
	// Cifar10 conv2: 5×5 stride-1 but only 1.3G FMAs — under the FFT volume
	// floor, stays GEMM.
	cifar2 := kernels.ConvConfig{N: 128, C: 64, H: 16, W: 16, K: 64, FH: 5, FW: 5, PadH: 2, PadW: 2}
	if got := SelectConvAlgorithm(cifar2); got != kernels.ConvAlgGemm {
		t.Errorf("Cifar10 conv2 shape selected %v, want gemm", got)
	}
}
