package gpusim

import (
	"testing"
	"testing/quick"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

func TestTransposedConfigClamping(t *testing.T) {
	// A layer whose output is smaller than the filter must still yield a
	// valid transposed configuration for the cost query.
	cfg := kernels.ConvConfig{N: 4, C: 8, H: 5, W: 5, K: 16, FH: 5, FW: 5}
	tc := transposedConfig(cfg)
	if err := tc.Validate(); err != nil {
		t.Errorf("transposed config invalid: %v", err)
	}
	if tc.C != cfg.K || tc.K != cfg.C {
		t.Error("transposed config must swap the channel dimensions")
	}
}

func TestGemmEfficiencyDegenerate(t *testing.T) {
	if eff := GemmEfficiency(GemmCostConfig{M: 0, N: 10, K: 10}); eff != gemmMinEff {
		t.Errorf("degenerate GEMM efficiency = %v, want floor %v", eff, gemmMinEff)
	}
	// The floor keeps even tiny GEMMs above zero throughput.
	small := GemmEfficiency(GemmCostConfig{M: 16, N: 100, K: 9})
	if small < gemmMinEff*gemmPeakFraction {
		t.Errorf("small GEMM efficiency %v fell below the floor", small)
	}
}

func TestGemmEfficiencyQuickProperties(t *testing.T) {
	f := func(m, n, k uint16) bool {
		g := GemmCostConfig{M: int(m%4096) + 1, N: int(n%8192) + 1, K: int(k%4096) + 1}
		eff := GemmEfficiency(g)
		return eff > 0 && eff <= gemmPeakFraction
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestLayerCostByLayerType prices each non-convolution layer type: every one
// has a model in both layouts, and the implementation options are held to
// their layouts.
func TestLayerCostByLayerType(t *testing.T) {
	d := TitanBlack()
	pool, err := layers.NewPool("pool1", kernels.PoolConfig{N: 4, C: 2, H: 8, W: 8, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	softmax, err := layers.NewSoftmax("prob", kernels.SoftmaxConfig{N: 8, Classes: 10})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := layers.NewFullyConnected("fc1", 4, 6, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	shape := tensor.Shape{N: 2, C: 8, H: 3, W: 3}
	relu, err := layers.NewReLU("relu1", shape)
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := layers.NewLRN("norm1", shape, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		l    layers.Layer
		lay  tensor.Layout
		opts CostOptions
		ok   bool
	}{
		{"plain CHWN pooling", pool, tensor.CHWN, CostOptions{}, true},
		{"optimised CHWN pooling", pool, tensor.CHWN, CostOptions{Pool: PoolOptimized}, true},
		{"cuDNN NCHW pooling", pool, tensor.NCHW, CostOptions{Pool: PoolCuDNN}, true},
		{"optimised NCHW pooling", pool, tensor.NCHW, CostOptions{Pool: PoolOptimized}, false},
		{"cuDNN CHWN pooling", pool, tensor.CHWN, CostOptions{Pool: PoolCuDNN}, false},
		{"plain NCHW pooling", pool, tensor.NCHW, CostOptions{}, true},
		{"fused softmax", softmax, tensor.NCHW, CostOptions{Softmax: SoftmaxFusedParallel}, true},
		{"CHWN softmax", softmax, tensor.CHWN, CostOptions{}, true},
		{"fully-connected", fc, tensor.NCHW, CostOptions{}, true},
		{"CHWN fully-connected", fc, tensor.CHWN, CostOptions{}, true},
		{"relu", relu, tensor.CHWN, CostOptions{}, true},
		{"lrn", lrn, tensor.NCHW, CostOptions{}, true},
	} {
		seq, err := LayerCost(d, c.l, c.lay, c.opts)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want success %v", c.what, err, c.ok)
			continue
		}
		for _, s := range seq {
			if err := s.Validate(); err != nil {
				t.Errorf("%s: %v", c.what, err)
			}
		}
	}
	if seq, _ := LayerCost(d, fc, tensor.NCHW, CostOptions{}); seq[0].FLOPs != 2*3*4*6 {
		t.Errorf("fc FLOPs = %v", seq[0].FLOPs)
	}
	if seq, _ := LayerCost(d, relu, tensor.CHWN, CostOptions{}); seq[0].DRAMReadBytes != float64(shape.Bytes()) {
		t.Error("relu should read the tensor once")
	}
}
