package layers_test

// Tests of the per-layer GPU price, gpusim.LayerCost, on this package's
// layers.  They are kept in this external test package, which may import
// gpusim where the layers package may not, so that the suite reports them
// under this package.

import (
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

func TestConvCostByLayoutAndImpl(t *testing.T) {
	d := gpusim.TitanBlack()
	c, err := layers.NewConv("conv1", kernels.ConvConfig{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}

	chwn, err := gpusim.LayerCost(d, c, tensor.CHWN, gpusim.CostOptions{})
	if err != nil || len(chwn) != 1 {
		t.Fatalf("CHWN cost: %v (%d kernels)", err, len(chwn))
	}
	nchw, err := gpusim.LayerCost(d, c, tensor.NCHW, gpusim.CostOptions{})
	if err != nil || len(nchw) != 2 {
		t.Fatalf("NCHW cost: %v (%d kernels, want im2col+gemm)", err, len(nchw))
	}
	if _, err := gpusim.LayerCost(d, c, tensor.NCHW, gpusim.CostOptions{Conv: gpusim.ConvBestNCHW}); err != nil {
		t.Errorf("best-NCHW cost: %v", err)
	}
	if _, err := gpusim.LayerCost(d, c, tensor.NCHW, gpusim.CostOptions{Conv: gpusim.ConvFFTImpl}); err != nil {
		t.Errorf("FFT cost on a small layer should fit: %v", err)
	}
	if _, err := gpusim.LayerCost(d, c, tensor.CHWN, gpusim.CostOptions{Conv: gpusim.ConvGemmImpl}); err == nil {
		t.Error("GEMM convolution must be rejected in CHWN")
	}
	if _, err := gpusim.LayerCost(d, c, tensor.NCHW, gpusim.CostOptions{Conv: gpusim.ConvDirectImpl}); err == nil {
		t.Error("direct convolution must be rejected in NCHW")
	}
}

func TestConvBestNCHWNeverSlowerThanGemm(t *testing.T) {
	d := gpusim.TitanBlack()
	cfgs := []kernels.ConvConfig{
		{N: 64, C: 256, H: 13, W: 13, K: 384, FH: 3, FW: 3},
		{N: 128, C: 16, H: 14, W: 14, K: 16, FH: 5, FW: 5},
		{N: 32, C: 128, H: 56, W: 56, K: 256, FH: 3, FW: 3},
	}
	for _, cfg := range cfgs {
		c, err := layers.NewConv("c", cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		gemm, err := gpusim.LayerCost(d, c, tensor.NCHW, gpusim.CostOptions{Conv: gpusim.ConvGemmImpl})
		if err != nil {
			t.Fatal(err)
		}
		best, err := gpusim.LayerCost(d, c, tensor.NCHW, gpusim.CostOptions{Conv: gpusim.ConvBestNCHW})
		if err != nil {
			t.Fatal(err)
		}
		gemmT := gpusim.EstimateSequence(d, gemm)
		bestT := gpusim.EstimateSequence(d, best)
		if bestT > gemmT*1.0001 {
			t.Errorf("%v: best-NCHW (%.0fus) slower than GEMM (%.0fus)", cfg, bestT, gemmT)
		}
	}
}

func TestPoolOptimizedDefaultExpansion(t *testing.T) {
	d := gpusim.TitanBlack()
	p, err := layers.NewPool("pool3", kernels.PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	def, err := gpusim.LayerCost(d, p, tensor.CHWN, gpusim.CostOptions{Pool: gpusim.PoolOptimized})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := gpusim.LayerCost(d, p, tensor.CHWN, gpusim.CostOptions{Pool: gpusim.PoolOptimized, PoolExpansion: kernels.PoolExpansion{H: 2, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if def[0].DRAMReadBytes != explicit[0].DRAMReadBytes {
		t.Error("default expansion should be 2x2")
	}
}

func TestImplStrings(t *testing.T) {
	for _, impl := range []gpusim.ConvImpl{gpusim.ConvAuto, gpusim.ConvDirectImpl, gpusim.ConvGemmImpl, gpusim.ConvFFTImpl, gpusim.ConvFFTTilingImpl, gpusim.ConvBestNCHW, gpusim.ConvImpl(42)} {
		if impl.String() == "" {
			t.Error("ConvImpl.String must not be empty")
		}
	}
	for _, impl := range []gpusim.PoolImpl{gpusim.PoolPlain, gpusim.PoolOptimized, gpusim.PoolCuDNN, gpusim.PoolImpl(42)} {
		if impl.String() == "" {
			t.Error("PoolImpl.String must not be empty")
		}
	}
}
