package kernels

import (
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/tensor"
)

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
		naive, err := TransformCost(d, shape, tensor.CHWN, tensor.NCHW, TransformNaive)
		if err != nil {
			t.Fatal(err)
		}
		tiled, err := TransformCost(d, shape, tensor.CHWN, tensor.NCHW, TransformTiled)
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
		if !TransformApplicable(TransformVectorized, shape) {
			continue
		}
		vec, err := TransformCost(d, shape, tensor.CHWN, tensor.NCHW, TransformVectorized)
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
	if TransformApplicable(TransformVectorized, small) {
		t.Error("vectorised transform must not apply to N=32")
	}
	if _, err := TransformCost(d, small, tensor.CHWN, tensor.NCHW, TransformVectorized); err == nil {
		t.Error("expected error for N=32 vectorised transform")
	}
	big := tensor.Shape{N: 64, C: 256, H: 28, W: 28}
	if !TransformApplicable(TransformVectorized, big) {
		t.Error("vectorised transform must apply to N=64")
	}
}

func TestTransformSameLayoutIsFree(t *testing.T) {
	d := gpusim.TitanBlack()
	s, err := TransformCost(d, transformShapes[0], tensor.NCHW, tensor.NCHW, TransformTiled)
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
	vec, err := TransformCost(d, shape, tensor.CHWN, tensor.NCHW, TransformVectorized)
	if err != nil {
		t.Fatal(err)
	}
	kt := gpusim.EstimateTime(d, vec)
	if kt.AchievedBandwidthGBs < 0.85*d.MemBandwidthGBs {
		t.Errorf("vectorised transform bandwidth = %.1f GB/s, want near peak", kt.AchievedBandwidthGBs)
	}
	naive, err := TransformCost(d, shape, tensor.CHWN, tensor.NCHW, TransformNaive)
	if err != nil {
		t.Fatal(err)
	}
	if nb := gpusim.EstimateTime(d, naive).AchievedBandwidthGBs; nb > 0.5*d.MemBandwidthGBs {
		t.Errorf("naive transform bandwidth = %.1f GB/s, should be far from peak", nb)
	}
}

func TestTransformCostValidation(t *testing.T) {
	d := gpusim.TitanBlack()
	if _, err := TransformCost(d, tensor.Shape{}, tensor.CHWN, tensor.NCHW, TransformTiled); err == nil {
		t.Error("invalid shape must be rejected")
	}
	if _, err := TransformCost(d, transformShapes[0], tensor.Layout(9), tensor.NCHW, TransformTiled); err == nil {
		t.Error("invalid source layout must be rejected")
	}
	if _, err := TransformCost(d, transformShapes[0], tensor.CHWN, tensor.Layout(9), TransformTiled); err == nil {
		t.Error("invalid destination layout must be rejected")
	}
}

func TestTransformStatsValid(t *testing.T) {
	d := gpusim.TitanBlack()
	for _, shape := range transformShapes {
		for _, m := range []TransformMethod{TransformNaive, TransformTiled, TransformVectorized} {
			if !TransformApplicable(m, shape) {
				continue
			}
			s, err := TransformCost(d, shape, tensor.CHWN, tensor.NCHW, m)
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
	_, method, err := BestTransform(d, tensor.Shape{N: 128, C: 16, H: 28, W: 28}, tensor.CHWN, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	if method != TransformVectorized {
		t.Errorf("expected vectorised transform for N=128, got %v", method)
	}
	_, method, err = BestTransform(d, tensor.Shape{N: 32, C: 256, H: 28, W: 28}, tensor.CHWN, tensor.NCHW)
	if err != nil {
		t.Fatal(err)
	}
	if method != TransformTiled {
		t.Errorf("expected tiled transform for N=32, got %v", method)
	}
}

func TestTransformMethodString(t *testing.T) {
	for _, m := range []TransformMethod{TransformNaive, TransformTiled, TransformVectorized, TransformMethod(9)} {
		if m.String() == "" {
			t.Error("String must not be empty")
		}
	}
}
