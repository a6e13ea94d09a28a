// Package layout implements the paper's data-layout selection heuristic and
// its one-time per-device calibration (Section IV.A).
//
// The heuristic is deliberately simple — it only looks at the batch size N
// and the input channel count C of a convolutional layer:
//
//	if C < Ct            -> CHWN  (the matrix-expansion overhead of NCHW is too high)
//	else if N >= Nt      -> CHWN  (N is large enough for both coalescing and register reuse)
//	else                 -> NCHW
//
// Pooling layers always prefer CHWN (Section IV.B).  The thresholds (Ct, Nt)
// depend only on the GPU, not on the network, so they are obtained once per
// device by profiling a reference layer shape while sweeping N and C — the
// same sweeps shown in Fig. 4.
package layout

import (
	"fmt"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

// Thresholds holds the device-specific decision points of the heuristic.
type Thresholds struct {
	Ct int // channel threshold: below it CHWN is preferred
	Nt int // batch threshold: at or above it CHWN is preferred
}

// String formats the thresholds the way the paper quotes them, "(Ct, Nt)".
func (t Thresholds) String() string { return fmt.Sprintf("(Ct=%d, Nt=%d)", t.Ct, t.Nt) }

// Valid reports whether the thresholds are usable.
func (t Thresholds) Valid() bool { return t.Ct > 0 && t.Nt > 0 }

// TitanBlackThresholds are the paper's published thresholds for the GTX Titan
// Black, (Ct, Nt) = (32, 128).
func TitanBlackThresholds() Thresholds { return Thresholds{Ct: 32, Nt: 128} }

// TitanXThresholds are the paper's published thresholds for the GTX Titan X,
// (Ct, Nt) = (128, 64).
func TitanXThresholds() Thresholds { return Thresholds{Ct: 128, Nt: 64} }

// PreferredConvLayout applies the heuristic to one convolutional layer.
func PreferredConvLayout(cfg kernels.ConvConfig, t Thresholds) tensor.Layout {
	if !t.Valid() {
		t = TitanBlackThresholds()
	}
	if cfg.C < t.Ct {
		return tensor.CHWN
	}
	if cfg.N >= t.Nt {
		return tensor.CHWN
	}
	return tensor.NCHW
}

// PreferredPoolLayout returns the layout pooling layers always prefer.
// Section IV.B: the CHWN layout keeps every pooling load coalesced, so it
// wins across the board.
func PreferredPoolLayout(kernels.PoolConfig) tensor.Layout { return tensor.CHWN }

// MeasuredConvWinner prices both layouts' best implementations on the GPU
// model — the direct kernel in CHWN, gpusim.BestNCHWConv in NCHW, as the
// paper's comparisons do — and returns the faster layout with both times.  It
// is the "oracle" the heuristic is validated against (and what one-time
// profiling would measure on real hardware).
func MeasuredConvWinner(d *gpusim.Device, cfg kernels.ConvConfig) (tensor.Layout, float64, float64) {
	chwn := gpusim.EstimateTime(d, gpusim.ConvDirectCHWNCost(d, cfg)).TotalUS
	_, nchw := gpusim.BestNCHWConv(d, cfg)
	if chwn <= nchw {
		return tensor.CHWN, chwn, nchw
	}
	return tensor.NCHW, chwn, nchw
}

// calibrationReference is the layer shape used for the calibration sweeps; it
// mirrors the paper's use of CONV7 in Fig. 4 (13x13 maps, 384 filters, 3x3
// kernels).
type calibrationReference struct {
	H, W, K, FH, FW int
}

var defaultReference = calibrationReference{H: 13, W: 13, K: 384, FH: 3, FW: 3}

// CalibrationSweeps returns the N and C values probed during calibration.
func CalibrationSweeps() (nValues, cValues []int) {
	return []int{16, 32, 48, 64, 96, 128, 192, 256},
		[]int{4, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256}
}

// Calibrate derives the (Ct, Nt) thresholds for a device by sweeping the
// batch size and channel count of the reference layer shape and finding the
// crossover points between the two layouts' modelled performance.  This is
// the library counterpart of the paper's one-time profiling pass.
func Calibrate(d *gpusim.Device) Thresholds {
	nValues, cValues := CalibrationSweeps()

	// Nt: smallest probed N at which CHWN wins with a deep input (C=256).
	nt := nValues[len(nValues)-1]
	found := false
	for _, n := range nValues {
		cfg := kernels.ConvConfig{N: n, C: 256, H: defaultReference.H, W: defaultReference.W,
			K: defaultReference.K, FH: defaultReference.FH, FW: defaultReference.FW}
		if winner, _, _ := MeasuredConvWinner(d, cfg); winner == tensor.CHWN {
			nt = n
			found = true
			break
		}
	}
	if !found {
		nt = nValues[len(nValues)-1] * 2
	}

	// Ct: smallest probed C at which NCHW starts winning with a mid-size
	// batch (N=64, below Nt so the batch rule does not mask the channel
	// rule).
	ct := cValues[len(cValues)-1]
	for _, c := range cValues {
		cfg := kernels.ConvConfig{N: 64, C: c, H: defaultReference.H, W: defaultReference.W,
			K: defaultReference.K, FH: defaultReference.FH, FW: defaultReference.FW}
		if winner, _, _ := MeasuredConvWinner(d, cfg); winner == tensor.NCHW {
			ct = c
			break
		}
	}
	return Thresholds{Ct: ct, Nt: nt}
}

// SweepPoint is one measurement of a calibration sweep: the modelled
// throughput of both layouts at a given dimension value.  The benchmark
// harness uses it to regenerate Fig. 4.
type SweepPoint struct {
	Value       int     // the swept N or C
	CHWNGflops  float64 // cuda-convnet / direct convolution throughput
	NCHWGflops  float64 // cuDNN / GEMM convolution throughput
	CHWNTimeUS  float64
	NCHWTimeUS  float64
	CHWNPrefers bool
}

// SweepN reproduces the Fig. 4a experiment: fix the reference shape with
// C=256 and vary the batch size.
func SweepN(d *gpusim.Device, nValues []int) []SweepPoint {
	points := make([]SweepPoint, 0, len(nValues))
	for _, n := range nValues {
		cfg := kernels.ConvConfig{N: n, C: 256, H: defaultReference.H, W: defaultReference.W,
			K: defaultReference.K, FH: defaultReference.FH, FW: defaultReference.FW}
		points = append(points, sweepPoint(d, cfg, n))
	}
	return points
}

// SweepC reproduces the Fig. 4b experiment: fix the reference shape with N=64
// and vary the channel count.
func SweepC(d *gpusim.Device, cValues []int) []SweepPoint {
	points := make([]SweepPoint, 0, len(cValues))
	for _, c := range cValues {
		cfg := kernels.ConvConfig{N: 64, C: c, H: defaultReference.H, W: defaultReference.W,
			K: defaultReference.K, FH: defaultReference.FH, FW: defaultReference.FW}
		points = append(points, sweepPoint(d, cfg, c))
	}
	return points
}

func sweepPoint(d *gpusim.Device, cfg kernels.ConvConfig, value int) SweepPoint {
	chwn := gpusim.EstimateTime(d, gpusim.ConvDirectCHWNCost(d, cfg)).TotalUS
	nchw := gpusim.EstimateSequence(d, gpusim.ConvGemmNCHWCost(d, cfg))
	flops := cfg.FLOPs()
	return SweepPoint{
		Value:       value,
		CHWNGflops:  flops / (chwn * 1e-6) / 1e9,
		NCHWGflops:  flops / (nchw * 1e-6) / 1e9,
		CHWNTimeUS:  chwn,
		NCHWTimeUS:  nchw,
		CHWNPrefers: chwn <= nchw,
	}
}
