package kernels_test

// Tests of the GPU cost models (internal/gpusim) of this package's kernels
// against the paper's trends.  They are kept in this external test package,
// which may import gpusim where the kernels package may not, so that the
// suite reports them under this package.

import (
	"errors"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

func TestDirectImagesPerThread(t *testing.T) {
	cases := map[int]int{1: 1, 16: 1, 32: 1, 63: 1, 64: 2, 127: 2, 128: 4, 256: 4, 512: 4}
	for n, want := range cases {
		if got := gpusim.DirectImagesPerThread(n); got != want {
			t.Errorf("DirectImagesPerThread(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestDirectConvEfficiencyIncreasesWithN(t *testing.T) {
	// Fig. 4a: the CHWN direct convolution is highly sensitive to N.
	base := kernels.ConvConfig{C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3} // CONV7 shape
	prev := 0.0
	for _, n := range []int{1, 3, 16, 32, 64, 128, 256, 512} {
		cfg := base
		cfg.N = n
		eff := gpusim.DirectConvEfficiency(cfg)
		if eff < prev {
			t.Errorf("efficiency decreased at N=%d: %v < %v", n, eff, prev)
		}
		if eff <= 0 || eff > 1 {
			t.Errorf("efficiency %v out of range at N=%d", eff, n)
		}
		prev = eff
	}
	small := gpusim.DirectConvEfficiency(kernels.ConvConfig{N: 16, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3})
	big := gpusim.DirectConvEfficiency(kernels.ConvConfig{N: 128, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3})
	if big < 2*small {
		t.Errorf("N=128 efficiency (%v) should be far larger than N=16 (%v)", big, small)
	}
}

func TestConvDirectCostStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, cfg := range kernels.SmallConvCases {
		s := gpusim.ConvDirectCHWNCost(d, cfg)
		if err := s.Validate(); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
		if s.FLOPs != cfg.FLOPs() {
			t.Errorf("%v: FLOPs = %v, want %v", cfg, s.FLOPs, cfg.FLOPs())
		}
		if s.DRAMReadBytes < s.UsefulReadBytes {
			t.Errorf("%v: moved bytes below useful bytes", cfg)
		}
	}
}

func TestConvGemmCostIncludesUnroll(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := kernels.ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2} // CONV6
	seq := gpusim.ConvGemmNCHWCost(d, cfg)
	if len(seq) != 2 {
		t.Fatalf("5x5 convolution must include the im2col kernel, got %d kernels", len(seq))
	}
	onebyone := kernels.ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 1, FW: 1}
	if got := gpusim.ConvGemmNCHWCost(d, onebyone); len(got) != 1 {
		t.Errorf("1x1 stride-1 convolution should skip im2col, got %d kernels", len(got))
	}
}

func TestConvGemmShape(t *testing.T) {
	cfg := kernels.ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}
	g := gpusim.ConvGemmShape(cfg)
	if g.M != 384 || g.K != 256*9 || g.N != 64*11*11 {
		t.Errorf("GEMM shape = %+v", g)
	}
}

// TestPaperLayoutWinners encodes the headline observation of Fig. 3: with
// batch 128 or few channels the CHWN direct convolution wins, with small
// batches and many channels the NCHW GEMM convolution wins.
func TestPaperLayoutWinners(t *testing.T) {
	d := gpusim.TitanBlack()
	cases := []struct {
		name     string
		cfg      kernels.ConvConfig
		wantCHWN bool
	}{
		{"CONV1 (LeNet, C=1, N=128)", kernels.ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5}, true},
		{"CONV4 (Cifar, C=64, N=128)", kernels.ConvConfig{N: 128, C: 64, H: 12, W: 12, K: 64, FH: 5, FW: 5}, true},
		{"CONV5 (ZFNet first, C=3)", kernels.ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}, true},
		{"CONV7 (ZFNet, C=256, N=64)", kernels.ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}, false},
		{"CONV11 (VGG, C=256, N=32)", kernels.ConvConfig{N: 32, C: 256, H: 28, W: 28, K: 512, FH: 3, FW: 3}, false},
	}
	for _, c := range cases {
		chwn := gpusim.EstimateTime(d, gpusim.ConvDirectCHWNCost(d, c.cfg)).TotalUS
		nchwTotal := gpusim.EstimateSequence(d, gpusim.ConvGemmNCHWCost(d, c.cfg))
		gotCHWN := chwn < nchwTotal
		if gotCHWN != c.wantCHWN {
			t.Errorf("%s: CHWN=%.0fus NCHW=%.0fus, wanted CHWN faster = %v", c.name, chwn, nchwTotal, c.wantCHWN)
		}
	}
}

func TestConvFFTCostOOMOnLargeFirstLayers(t *testing.T) {
	d := gpusim.TitanBlack()
	// CV5 and CV6 exceed the 6 GB card in the paper's experiments (Fig. 5).
	cv5 := kernels.ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}
	cv6 := kernels.ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2}
	for _, cfg := range []kernels.ConvConfig{cv5, cv6} {
		if _, err := gpusim.ConvFFTCost(d, cfg); err == nil {
			t.Errorf("%v: expected out-of-memory failure", cfg)
		} else {
			var oom *gpusim.ErrOutOfMemory
			if !errors.As(err, &oom) {
				t.Errorf("%v: error is not ErrOutOfMemory: %v", cfg, err)
			} else if oom.Error() == "" {
				t.Error("ErrOutOfMemory must describe itself")
			}
		}
	}
	// The tiling mode reduces the workspace and must succeed on the same layers.
	if _, err := gpusim.ConvFFTTilingCost(d, cv6); err != nil {
		t.Errorf("FFT tiling should fit for CV6: %v", err)
	}
	// Smaller layers must not fail.
	cv7 := kernels.ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}
	if _, err := gpusim.ConvFFTCost(d, cv7); err != nil {
		t.Errorf("CV7 FFT should fit: %v", err)
	}
}

func TestConvFFTCostStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := kernels.ConvConfig{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3}
	for _, tiled := range []bool{false, true} {
		mode := gpusim.ConvFFTCost
		if tiled {
			mode = gpusim.ConvFFTTilingCost
		}
		seq, err := mode(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 3 {
			t.Fatalf("FFT cost should have 3 stages, got %d", len(seq))
		}
		for _, s := range seq {
			if err := s.Validate(); err != nil {
				t.Errorf("tiled=%v: %v", tiled, err)
			}
		}
	}
}

func TestFFTWorkspaceLargerThanTiling(t *testing.T) {
	cfg := kernels.ConvConfig{N: 64, C: 96, H: 55, W: 55, K: 256, FH: 5, FW: 5, StrideH: 2, StrideW: 2}
	if gpusim.FFTWorkspaceBytes(cfg) <= gpusim.FFTTilingWorkspaceBytes(cfg) {
		t.Error("full-image FFT workspace should exceed the tiled workspace for 55x55 maps")
	}
}

func TestIm2colCostScalesWithFilterArea(t *testing.T) {
	d := gpusim.TitanBlack()
	small := gpusim.Im2colCost(d, kernels.ConvConfig{N: 32, C: 64, H: 28, W: 28, K: 64, FH: 1, FW: 1})
	large := gpusim.Im2colCost(d, kernels.ConvConfig{N: 32, C: 64, H: 28, W: 28, K: 64, FH: 5, FW: 5})
	if large.DRAMWriteBytes <= small.DRAMWriteBytes {
		t.Error("a 5x5 unroll writes far more than a 1x1 unroll")
	}
	if err := small.Validate(); err != nil {
		t.Error(err)
	}
	if err := large.Validate(); err != nil {
		t.Error(err)
	}
}

func TestGemmEfficiencyMonotoneInK(t *testing.T) {
	prev := 0.0
	for _, k := range []int{9, 27, 144, 288, 576, 1152, 2304, 4608} {
		eff := gpusim.GemmEfficiency(gpusim.GemmCostConfig{M: 384, N: 7744, K: k})
		if eff < prev {
			t.Errorf("efficiency decreased at K=%d: %v < %v", k, eff, prev)
		}
		if eff <= 0 || eff > 1 {
			t.Errorf("efficiency %v out of range at K=%d", eff, k)
		}
		prev = eff
	}
}

func TestGemmCostTrafficAndFLOPs(t *testing.T) {
	d := gpusim.TitanBlack()
	g := gpusim.GemmCostConfig{M: 256, N: 4096, K: 1024}
	s := gpusim.GemmCost(d, g)
	if s.FLOPs != g.FLOPs() {
		t.Errorf("FLOPs = %v, want %v", s.FLOPs, g.FLOPs())
	}
	if err := s.Validate(); err != nil {
		t.Errorf("GemmCost stats invalid: %v", err)
	}
	if s.DRAMWriteBytes != float64(g.M*g.N)*4 {
		t.Errorf("write bytes = %v, want %v", s.DRAMWriteBytes, g.M*g.N*4)
	}
	if s.DRAMReadBytes < s.UsefulReadBytes {
		t.Error("moved read bytes must be at least the useful bytes")
	}
	// The kernel estimate must be finite and positive.
	kt := gpusim.EstimateTime(d, s)
	if kt.TotalUS <= 0 {
		t.Error("GEMM time must be positive")
	}
}

func TestGemmCostLargerProblemsTakeLonger(t *testing.T) {
	d := gpusim.TitanBlack()
	small := gpusim.EstimateTime(d, gpusim.GemmCost(d, gpusim.GemmCostConfig{M: 128, N: 1024, K: 256})).TotalUS
	large := gpusim.EstimateTime(d, gpusim.GemmCost(d, gpusim.GemmCostConfig{M: 512, N: 8192, K: 1024})).TotalUS
	if large <= small {
		t.Errorf("larger GEMM (%v us) should take longer than smaller (%v us)", large, small)
	}
}

// Table 1 pooling layers used by the cost-model tests.
var paperPoolLayers = []kernels.PoolConfig{
	{N: 128, C: 16, H: 28, W: 28, Window: 2, Stride: 2},  // POOL1
	{N: 128, C: 16, H: 14, W: 14, Window: 2, Stride: 2},  // POOL2
	{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2},  // POOL3
	{N: 128, C: 96, H: 55, W: 55, Window: 3, Stride: 2},  // POOL5
	{N: 64, C: 96, H: 110, W: 110, Window: 3, Stride: 2}, // POOL8
}

func TestPoolCHWNAlwaysBeatsNCHW(t *testing.T) {
	// Section IV.B: for pooling layers the CHWN layout is always preferred.
	d := gpusim.TitanBlack()
	for _, cfg := range paperPoolLayers {
		chwn := gpusim.EstimateTime(d, gpusim.PoolCHWNCost(d, cfg)).TotalUS
		caffe := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, cfg, gpusim.PoolPlain)).TotalUS
		cudnn := gpusim.EstimateTime(d, gpusim.PoolNCHWCost(d, cfg, gpusim.PoolCuDNN)).TotalUS
		if chwn >= caffe || chwn >= cudnn {
			t.Errorf("%v: CHWN (%.0fus) must beat Caffe (%.0fus) and cuDNN (%.0fus)", cfg, chwn, caffe, cudnn)
		}
	}
}

func TestPoolCoarseningHelpsOverlappedPooling(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, cfg := range paperPoolLayers {
		base := gpusim.EstimateTime(d, gpusim.PoolCHWNCost(d, cfg)).TotalUS
		opt := gpusim.EstimateTime(d, gpusim.PoolCHWNCoarsenedCost(d, cfg, kernels.PoolExpansion{H: 2, W: 2})).TotalUS
		if cfg.Overlapped() && opt >= base {
			t.Errorf("%v: coarsening should reduce time for overlapped pooling (base %.0fus, opt %.0fus)", cfg, base, opt)
		}
	}
}

func TestPoolExcessiveCoarseningBackfires(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := kernels.PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2}
	moderate := gpusim.EstimateTime(d, gpusim.PoolCHWNCoarsenedCost(d, cfg, kernels.PoolExpansion{H: 2, W: 2})).TotalUS
	extreme := gpusim.EstimateTime(d, gpusim.PoolCHWNCoarsenedCost(d, cfg, kernels.PoolExpansion{H: 8, W: 8})).TotalUS
	if extreme <= moderate {
		t.Errorf("extreme coarsening (%.0fus) should lose to moderate coarsening (%.0fus) due to register pressure", extreme, moderate)
	}
}

// TestPoolNonOverlappedHasNoRedundancy: the CHWN kernel reads a
// non-overlapped layer's input exactly once, and an overlapped one's more
// than once.
func TestPoolNonOverlappedHasNoRedundancy(t *testing.T) {
	d := gpusim.TitanBlack()
	cfg := kernels.PoolConfig{N: 128, C: 16, H: 28, W: 28, Window: 2, Stride: 2}
	if s := gpusim.PoolCHWNCost(d, cfg); s.DRAMReadBytes != s.UsefulReadBytes {
		t.Errorf("non-overlapped pooling reads %v bytes for %v useful ones", s.DRAMReadBytes, s.UsefulReadBytes)
	}
	over := kernels.PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2}
	if s := gpusim.PoolCHWNCost(d, over); s.DRAMReadBytes <= s.UsefulReadBytes {
		t.Errorf("overlapped pooling reads %v bytes for %v useful ones, want more", s.DRAMReadBytes, s.UsefulReadBytes)
	}
}

func TestPoolCostStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, cfg := range paperPoolLayers {
		for _, s := range []gpusim.KernelStats{
			gpusim.PoolCHWNCost(d, cfg),
			gpusim.PoolNCHWCost(d, cfg, gpusim.PoolPlain),
			gpusim.PoolNCHWCost(d, cfg, gpusim.PoolCuDNN),
			gpusim.PoolCHWNCoarsenedCost(d, cfg, kernels.PoolExpansion{H: 2, W: 2}),
			gpusim.PoolCHWNCoarsenedCost(d, cfg, kernels.PoolExpansion{}),
		} {
			if err := s.Validate(); err != nil {
				t.Errorf("%v: %v", cfg, err)
			}
		}
	}
}

func TestPoolCoarsenedRegistersGrowWithExpansion(t *testing.T) {
	cfg := kernels.PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2}
	prev := 0
	for e := 1; e <= 6; e++ {
		regs := gpusim.PoolCoarsenedRegisters(cfg, kernels.PoolExpansion{H: e, W: e})
		if regs < prev {
			t.Errorf("registers decreased at expansion %d", e)
		}
		if regs > 255 {
			t.Errorf("registers must be capped at 255, got %d", regs)
		}
		prev = regs
	}
}

// Softmax configurations from Fig. 13 (batch/categories).
var paperSoftmaxConfigs = []kernels.SoftmaxConfig{
	{N: 32, Classes: 10}, {N: 64, Classes: 10}, {N: 128, Classes: 10},
	{N: 32, Classes: 100}, {N: 64, Classes: 100}, {N: 128, Classes: 100},
	{N: 32, Classes: 1000}, {N: 64, Classes: 1000}, {N: 128, Classes: 1000},
	{N: 128, Classes: 5000}, {N: 128, Classes: 10000}, {N: 256, Classes: 10000},
}

func TestSoftmaxOptimizationsAlwaysHelp(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, cfg := range paperSoftmaxConfigs {
		baseline, _ := gpusim.SoftmaxBaselineBest(d, cfg)
		base := gpusim.EstimateTime(d, baseline).TotalUS
		fusedPar := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxFusedParallel)).TotalUS
		if fusedPar >= base {
			t.Errorf("%v: fused+parallel (%.1fus) must beat the best baseline (%.1fus)", cfg, fusedPar, base)
		}
	}
}

func TestSoftmaxFusionAndParallelismAblation(t *testing.T) {
	// Section VI.B: fusion alone contributes a multi-x speedup over the
	// thread-per-image baseline; inner-loop parallelisation adds more on top.
	d := gpusim.TitanBlack()
	cfg := kernels.SoftmaxConfig{N: 128, Classes: 1000}
	base := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxThreadPerImage)).TotalUS
	fused := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxFused)).TotalUS
	full := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxFusedParallel)).TotalUS
	if !(full < fused && fused < base) {
		t.Errorf("expected base > fused > fused+parallel, got %.1f > %.1f > %.1f", base, fused, full)
	}
	if base/fused < 1.5 {
		t.Errorf("fusion speedup %.2fx too small", base/fused)
	}
	if fused/full < 1.5 {
		t.Errorf("parallelisation speedup %.2fx too small", fused/full)
	}
}

func TestSoftmaxLargeCategoryBandwidthApproachesPeak(t *testing.T) {
	// Fig. 13: with 10000 categories the optimised kernel reaches ~94% of the
	// effective bandwidth, while the best baseline stays far below.
	d := gpusim.TitanBlack()
	cfg := kernels.SoftmaxConfig{N: 128, Classes: 10000}
	opt := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxFusedParallel))
	if opt.AchievedBandwidthGBs < 0.75*d.MemBandwidthGBs {
		t.Errorf("optimised softmax bandwidth %.1f GB/s, want >= 75%% of %v", opt.AchievedBandwidthGBs, d.MemBandwidthGBs)
	}
	baseline, _ := gpusim.SoftmaxBaselineBest(d, cfg)
	bl := gpusim.EstimateTime(d, baseline)
	if bl.AchievedBandwidthGBs > 0.5*d.MemBandwidthGBs {
		t.Errorf("baseline softmax bandwidth %.1f GB/s should stay well below peak", bl.AchievedBandwidthGBs)
	}
}

func TestSoftmaxBaselineBestPicksFaster(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, cfg := range paperSoftmaxConfigs {
		best, impl := gpusim.SoftmaxBaselineBest(d, cfg)
		bestT := gpusim.EstimateTime(d, best).TotalUS
		thread := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxThreadPerImage)).TotalUS
		block := gpusim.EstimateTime(d, gpusim.SoftmaxCost(d, cfg, gpusim.SoftmaxBlockPerImage)).TotalUS
		if bestT > thread || bestT > block {
			t.Errorf("%v: BaselineBest (%v, %.1fus) is not the fastest of %.1f / %.1f", cfg, impl, bestT, thread, block)
		}
	}
}

func TestSoftmaxCostStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	impls := []gpusim.SoftmaxImpl{gpusim.SoftmaxThreadPerImage, gpusim.SoftmaxBlockPerImage, gpusim.SoftmaxFused, gpusim.SoftmaxFusedParallel}
	for _, cfg := range paperSoftmaxConfigs {
		for _, impl := range impls {
			s := gpusim.SoftmaxCost(d, cfg, impl)
			if err := s.Validate(); err != nil {
				t.Errorf("%v %v: %v", cfg, impl, err)
			}
		}
	}
}

func TestSoftmaxImplString(t *testing.T) {
	for _, impl := range []gpusim.SoftmaxImpl{gpusim.SoftmaxThreadPerImage, gpusim.SoftmaxBlockPerImage, gpusim.SoftmaxFused, gpusim.SoftmaxFusedParallel, gpusim.SoftmaxImpl(99)} {
		if impl.String() == "" {
			t.Error("String must not be empty")
		}
	}
}

func TestBackwardCostsAreValidAndLayoutSensitive(t *testing.T) {
	d := gpusim.TitanBlack()
	convs := []kernels.ConvConfig{
		{N: 128, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5},
		{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3},
		{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2},
	}
	for _, cfg := range convs {
		for _, s := range []gpusim.KernelStats{gpusim.ConvBackwardDataCHWNCost(d, cfg)} {
			if err := s.Validate(); err != nil {
				t.Errorf("%v: %v", cfg, err)
			}
		}
		for _, s := range gpusim.ConvBackwardDataNCHWCost(d, cfg) {
			if err := s.Validate(); err != nil {
				t.Errorf("%v: %v", cfg, err)
			}
		}
		for _, s := range gpusim.ConvBackwardFilterCost(d, cfg) {
			if err := s.Validate(); err != nil {
				t.Errorf("%v: %v", cfg, err)
			}
		}
	}
	// The paper's footnote: the backward pass uses the same structures, so
	// the layout preference of the forward pass carries over to the combined
	// training step.
	cv2 := convs[0] // batch 128, small C -> CHWN preferred
	chwnTrain := gpusim.EstimateSequence(d, gpusim.ConvTrainingCost(d, cv2, true))
	nchwTrain := gpusim.EstimateSequence(d, gpusim.ConvTrainingCost(d, cv2, false))
	if chwnTrain >= nchwTrain {
		t.Errorf("CV2 training step: CHWN (%.0fus) should beat NCHW (%.0fus)", chwnTrain, nchwTrain)
	}
	cv7 := convs[1] // batch 64, C=256 -> NCHW preferred
	chwnTrain = gpusim.EstimateSequence(d, gpusim.ConvTrainingCost(d, cv7, true))
	nchwTrain = gpusim.EstimateSequence(d, gpusim.ConvTrainingCost(d, cv7, false))
	if nchwTrain >= chwnTrain {
		t.Errorf("CV7 training step: NCHW (%.0fus) should beat CHWN (%.0fus)", nchwTrain, chwnTrain)
	}
}

var transformShapes = []tensor.Shape{
	{N: 128, C: 16, H: 28, W: 28}, // CONV1 input
	{N: 64, C: 96, H: 55, W: 55},  // CONV6 input
	{N: 128, C: 64, H: 24, W: 24}, // CONV4 input
	{N: 32, C: 256, H: 28, W: 28}, // CONV11 input
}

func TestTransformMethodOrdering(t *testing.T) {
	// Fig. 11: tiled transposition beats the naive kernel, vectorisation
	// beats tiling (when applicable).
	d := gpusim.TitanBlack()
	for _, shape := range transformShapes {
		naive, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformNaive)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformTiled)
		if err != nil {
			t.Fatal(err)
		}
		naiveT := gpusim.EstimateTime(d, naive).TotalUS
		tiledT := gpusim.EstimateTime(d, tiled).TotalUS
		if tiledT >= naiveT {
			t.Errorf("%v: tiled (%.1fus) must beat naive (%.1fus)", shape, tiledT, naiveT)
		}
		if naiveT/tiledT < 2 {
			t.Errorf("%v: tiled speedup over naive is only %.2fx", shape, naiveT/tiledT)
		}
		if !gpusim.TransformApplicable(gpusim.TransformVectorized, shape) {
			continue
		}
		vec, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformVectorized)
		if err != nil {
			t.Fatal(err)
		}
		vecT := gpusim.EstimateTime(d, vec).TotalUS
		if vecT >= tiledT {
			t.Errorf("%v: vectorised (%.1fus) must beat tiled (%.1fus)", shape, vecT, tiledT)
		}
	}
}

func TestTransformVectorizedRequiresLargeBatch(t *testing.T) {
	d := gpusim.TitanBlack()
	small := tensor.Shape{N: 32, C: 256, H: 28, W: 28}
	if gpusim.TransformApplicable(gpusim.TransformVectorized, small) {
		t.Error("vectorised transform must not apply to N=32")
	}
	if _, err := gpusim.TransformCost(d, small, tensor.CHWN, tensor.NCHW, gpusim.TransformVectorized); err == nil {
		t.Error("expected error for N=32 vectorised transform")
	}
	big := tensor.Shape{N: 64, C: 256, H: 28, W: 28}
	if !gpusim.TransformApplicable(gpusim.TransformVectorized, big) {
		t.Error("vectorised transform must apply to N=64")
	}
}

func TestTransformSameLayoutIsFree(t *testing.T) {
	d := gpusim.TitanBlack()
	s, err := gpusim.TransformCost(d, transformShapes[0], tensor.NCHW, tensor.NCHW, gpusim.TransformTiled)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalDRAMBytes() != 0 || s.Launches != 0 {
		t.Error("same-layout transform must cost nothing")
	}
}

func TestTransformOptimizedReachesNearPeakBandwidth(t *testing.T) {
	// The paper measures 229.5 GB/s (97.6% of effective bandwidth) for the
	// vectorised transform on the CONV6 input.
	d := gpusim.TitanBlack()
	shape := tensor.Shape{N: 64, C: 96, H: 55, W: 55}
	vec, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformVectorized)
	if err != nil {
		t.Fatal(err)
	}
	kt := gpusim.EstimateTime(d, vec)
	if kt.AchievedBandwidthGBs < 0.85*d.MemBandwidthGBs {
		t.Errorf("vectorised transform bandwidth = %.1f GB/s, want near peak", kt.AchievedBandwidthGBs)
	}
	naive, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, gpusim.TransformNaive)
	if err != nil {
		t.Fatal(err)
	}
	if nb := gpusim.EstimateTime(d, naive).AchievedBandwidthGBs; nb > 0.5*d.MemBandwidthGBs {
		t.Errorf("naive transform bandwidth = %.1f GB/s, should be far from peak", nb)
	}
}

func TestTransformCostValidation(t *testing.T) {
	d := gpusim.TitanBlack()
	if _, err := gpusim.TransformCost(d, tensor.Shape{}, tensor.CHWN, tensor.NCHW, gpusim.TransformTiled); err == nil {
		t.Error("invalid shape must be rejected")
	}
	if _, err := gpusim.TransformCost(d, transformShapes[0], tensor.Layout(9), tensor.NCHW, gpusim.TransformTiled); err == nil {
		t.Error("invalid source layout must be rejected")
	}
	if _, err := gpusim.TransformCost(d, transformShapes[0], tensor.CHWN, tensor.Layout(9), gpusim.TransformTiled); err == nil {
		t.Error("invalid destination layout must be rejected")
	}
}

func TestTransformStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, shape := range transformShapes {
		for _, m := range []gpusim.TransformMethod{gpusim.TransformNaive, gpusim.TransformTiled, gpusim.TransformVectorized} {
			if !gpusim.TransformApplicable(m, shape) {
				continue
			}
			s, err := gpusim.TransformCost(d, shape, tensor.CHWN, tensor.NCHW, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Errorf("%v %v: %v", shape, m, err)
			}
		}
	}
}

func TestBestTransformPrefersVectorizedWhenApplicable(t *testing.T) {
	d := gpusim.TitanBlack()
	_, method, err := gpusim.BestTransform(d, tensor.Shape{N: 128, C: 16, H: 28, W: 28}, tensor.CHWN, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	if method != gpusim.TransformVectorized {
		t.Errorf("expected vectorised transform for N=128, got %v", method)
	}
	_, method, err = gpusim.BestTransform(d, tensor.Shape{N: 32, C: 256, H: 28, W: 28}, tensor.CHWN, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	if method != gpusim.TransformTiled {
		t.Errorf("expected tiled transform for N=32, got %v", method)
	}
}

func TestTransformMethodString(t *testing.T) {
	for _, m := range []gpusim.TransformMethod{gpusim.TransformNaive, gpusim.TransformTiled, gpusim.TransformVectorized, gpusim.TransformMethod(9)} {
		if m.String() == "" {
			t.Error("String must not be empty")
		}
	}
}
