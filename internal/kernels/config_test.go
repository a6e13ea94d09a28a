package kernels

import (
	"strings"
	"testing"

	"memcnn/internal/tensor"
)

func TestConvConfigOutputSizes(t *testing.T) {
	cases := []struct {
		cfg        ConvConfig
		outH, outW int
	}{
		{ConvConfig{N: 128, C: 1, H: 28, W: 28, K: 16, FH: 5, FW: 5}, 24, 24},                            // CONV1
		{ConvConfig{N: 64, C: 3, H: 224, W: 224, K: 96, FH: 3, FW: 3, StrideH: 2, StrideW: 2}, 111, 111}, // CONV5
		{ConvConfig{N: 1, C: 1, H: 7, W: 9, K: 1, FH: 3, FW: 3, PadH: 1, PadW: 1}, 7, 9},
		{ConvConfig{N: 1, C: 1, H: 5, W: 5, K: 1, FH: 5, FW: 5}, 1, 1},
	}
	for _, c := range cases {
		if got := c.cfg.OutH(); got != c.outH {
			t.Errorf("%v: OutH = %d, want %d", c.cfg, got, c.outH)
		}
		if got := c.cfg.OutW(); got != c.outW {
			t.Errorf("%v: OutW = %d, want %d", c.cfg, got, c.outW)
		}
	}
}

func TestConvConfigValidate(t *testing.T) {
	good := ConvConfig{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []ConvConfig{
		{N: 0, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3},
		{N: 2, C: 3, H: 8, W: 8, K: 0, FH: 3, FW: 3},
		{N: 2, C: 3, H: 2, W: 2, K: 4, FH: 3, FW: 3},              // filter larger than input
		{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, StrideH: -1}, // negative stride
		{N: 2, C: 3, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", cfg)
		}
	}
}

func TestConvConfigShapesAndFLOPs(t *testing.T) {
	cfg := ConvConfig{N: 4, C: 3, H: 8, W: 8, K: 6, FH: 3, FW: 3}
	if got := cfg.InputShape(); got != (tensor.Shape{N: 4, C: 3, H: 8, W: 8}) {
		t.Errorf("InputShape = %v", got)
	}
	if got := cfg.OutputShape(); got != (tensor.Shape{N: 4, C: 6, H: 6, W: 6}) {
		t.Errorf("OutputShape = %v", got)
	}
	if got := cfg.FilterShape(); got != (tensor.Shape{N: 6, C: 3, H: 3, W: 3}) {
		t.Errorf("FilterShape = %v", got)
	}
	want := 2.0 * 4 * 6 * 6 * 6 * 3 * 3 * 3
	if got := cfg.FLOPs(); got != want {
		t.Errorf("FLOPs = %v, want %v", got, want)
	}
	if cfg.ReductionLength() != 27 {
		t.Errorf("ReductionLength = %d, want 27", cfg.ReductionLength())
	}
	if !strings.Contains(cfg.String(), "conv") {
		t.Error("String should describe the layer")
	}
}

func TestPoolConfig(t *testing.T) {
	overlapped := PoolConfig{N: 128, C: 64, H: 24, W: 24, Window: 3, Stride: 2}
	if !overlapped.Overlapped() {
		t.Error("window 3 stride 2 is overlapped")
	}
	if overlapped.OutH() != 11 || overlapped.OutW() != 11 {
		t.Errorf("OutH/W = %d/%d, want 11/11", overlapped.OutH(), overlapped.OutW())
	}
	plain := PoolConfig{N: 128, C: 16, H: 28, W: 28, Window: 2, Stride: 2}
	if plain.Overlapped() {
		t.Error("window 2 stride 2 is not overlapped")
	}
	if plain.OutH() != 14 {
		t.Errorf("OutH = %d, want 14", plain.OutH())
	}
	if err := plain.Validate(); err != nil {
		t.Errorf("valid pool config rejected: %v", err)
	}
	bad := []PoolConfig{
		{N: 0, C: 1, H: 4, W: 4, Window: 2, Stride: 2},
		{N: 1, C: 1, H: 4, W: 4, Window: 0, Stride: 2},
		{N: 1, C: 1, H: 4, W: 4, Window: 5, Stride: 2},
		{N: 1, C: 1, H: 4, W: 4, Window: 2, Stride: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("invalid pool config accepted: %+v", cfg)
		}
	}
	if plain.FLOPs() != float64(128*16*14*14*4) {
		t.Errorf("FLOPs = %v", plain.FLOPs())
	}
	if !strings.Contains(overlapped.String(), "overlapped") {
		t.Error("String should flag overlapped pooling")
	}
	if !strings.HasPrefix(plain.String(), "pool(max) ") {
		t.Errorf("String = %q, want the pool(max) prefix", plain.String())
	}
}

func TestSoftmaxConfig(t *testing.T) {
	cfg := SoftmaxConfig{N: 128, Classes: 1000}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid softmax config rejected: %v", err)
	}
	if cfg.Elems() != 128000 {
		t.Errorf("Elems = %d", cfg.Elems())
	}
	if cfg.Bytes() != 512000 {
		t.Errorf("Bytes = %v", cfg.Bytes())
	}
	if (SoftmaxConfig{N: 0, Classes: 10}).Validate() == nil {
		t.Error("zero batch must be rejected")
	}
	if (SoftmaxConfig{N: 10, Classes: 0}).Validate() == nil {
		t.Error("zero classes must be rejected")
	}
	if cfg.String() != "softmax 128/1000" {
		t.Errorf("String = %q", cfg.String())
	}
}

func TestConvConfigDefaultStride(t *testing.T) {
	cfg := ConvConfig{N: 1, C: 1, H: 8, W: 8, K: 1, FH: 3, FW: 3}
	// Stride defaults to 1 everywhere.
	if cfg.OutH() != 6 || cfg.OutW() != 6 {
		t.Errorf("default stride output = %dx%d, want 6x6", cfg.OutH(), cfg.OutW())
	}
}
