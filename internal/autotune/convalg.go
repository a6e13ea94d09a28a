package autotune

import (
	"math"

	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// Per-layer convolution algorithm selection, the paper's observation that no
// single strategy wins across layer shapes (Sections II.B, IV.A), decided on
// the hardware that runs it: every compiled program executes Go kernels on
// the host CPU, so the candidates are priced as estimated host seconds, work
// ÷ rate + per-call cost, and the cheapest wins.  The constants are rates of
// this repository's kernels, read off `go test -run '^$' -bench
// ConvAlgorithms -benchtime=20x .` on a 2-vCPU 2.1 GHz AVX2 Xeon, 2026-10-04;
// re-run it and edit the table when a kernel or the host changes.
const (
	// directGFLOPS is the direct lane walk: 2.3–5.4 on 5×5 shapes in NCHW
	// (`lenet-conv1@n128/direct`, `cifar10-conv1@n8/direct`), 3.2–6.6 in CHWN
	// (`lenet-conv2@n128/direct-chwn`), about 1 on `1img-small/direct`.
	directGFLOPS = 3.5
	// gemmGFLOPS is the packed GEMM core once the unroll below is paid for:
	// `alexnet-conv2@n32/gemm` and `vgg-conv3_1/gemm` read 72–90 overall, with
	// 256 filters to spread each unrolled element over.
	gemmGFLOPS = 95
	// gemmStepUnrollNS is what the per-image stepper (every layout pair but
	// CHWN → CHWN) pays per element of the C·FH·FW × OutH·OutW unroll matrix:
	// `lenet-conv2@n128/gemm` runs 20–22 ms, 3.4 of them the product, over
	// 10.0 M elements.  With few filters it is the whole cost: the stepper
	// reads 14 GFLOP/s at K = 16, 40 at K = 64 (`cifar-conv2/gemm`), 72 at 256.
	gemmStepUnrollNS = 1.7
	// gemmFoldUnrollNS is the same for the batch-folded form (CHWN in and
	// out), whose unroll copies runs of consecutive images:
	// `lenet-conv2@n128/gemm-chwn` runs 5.2–5.9 ms over the same elements.
	gemmFoldUnrollNS = 0.3
	// fftPointNS is the FFT path per plane point and unit of work, a transform
	// being log2(points) units a point and a spectrum product one:
	// `bigfilter-31x31/fft` (64×64 planes, 224 transforms, 512 products) runs
	// 24–36 ms, `cifar10-conv2@n8/fft` (16×16, 5120, 32768) 45–59 ms.
	fftPointNS = 2.7
	// syncUS is one goroutine fan-out, or one image's barriers in the stepper:
	// `1img-tiny/direct` runs 4–6 µs and `1img-tiny/gemm` 9–19 µs for 1.3 kFLOP
	// (at the default -benchtime: a process's first calls run several times slower).
	syncUS = 4.0
	// convertGBs is tensor.ConvertInto between NCHW and CHWN, per byte of
	// tensor: `go test -run '^$' -bench ConvertCHWNToNCHW ./internal/tensor`.
	convertGBs = 1.0
)

// hostSeconds estimates one call of alg's kernel on a layer whose input and
// output are in lay.  GEMM's two forms differ in the unroll, and the stepper
// also synchronises per image.  FFT is K·C filter, N·C image and N·K inverse
// transforms plus N·K·C spectrum products on power-of-two planes of the
// padded input: the dense correlation whatever the stride.  Its kernel runs
// in NCHW (Section IV.A), so from another layout both conversions are added.
func hostSeconds(cfg kernels.ConvConfig, lay tensor.Layout, alg kernels.ConvAlgorithm) float64 {
	n, c, k := float64(cfg.N), float64(cfg.C), float64(cfg.K)
	switch alg {
	case kernels.ConvAlgGemm:
		product := cfg.FLOPs() / (gemmGFLOPS * 1e9)
		unroll := n * float64(cfg.ReductionLength()*cfg.OutH()*cfg.OutW())
		if lay == tensor.CHWN {
			return product + unroll*gemmFoldUnrollNS*1e-9 + syncUS*1e-6
		}
		return product + unroll*gemmStepUnrollNS*1e-9 + (1+n)*syncUS*1e-6
	case kernels.ConvAlgFFT:
		rows, cols := kernels.ConvFFTPlane(cfg)
		points := float64(rows * cols)
		t := points*((k*c+n*c+n*k)*math.Log2(points)+n*k*c)*fftPointNS*1e-9 + 2*syncUS*1e-6
		if lay != tensor.NCHW {
			t += float64(cfg.InputShape().Bytes()+cfg.OutputShape().Bytes()) / (convertGBs * 1e9)
		}
		return t
	default:
		return cfg.FLOPs()/(directGFLOPS*1e9) + syncUS*1e-6
	}
}

// SelectConvAlgorithm picks the convolution algorithm with the lowest
// estimated host time for a layer that the plan runs in lay.  An FFT answer
// means the layer runs in NCHW.  An invalid configuration gets direct.
func SelectConvAlgorithm(cfg kernels.ConvConfig, lay tensor.Layout) kernels.ConvAlgorithm {
	if cfg.Validate() != nil {
		return kernels.ConvAlgDirect
	}
	best, bestT := kernels.ConvAlgDirect, hostSeconds(cfg, lay, kernels.ConvAlgDirect)
	for _, alg := range []kernels.ConvAlgorithm{kernels.ConvAlgGemm, kernels.ConvAlgFFT} {
		if t := hostSeconds(cfg, lay, alg); t < bestT {
			best, bestT = alg, t
		}
	}
	return best
}
