package kernels

import (
	"testing"
	"testing/quick"

	"memcnn/internal/tensor"
)

func TestPoolMaxHandComputed(t *testing.T) {
	cfg := PoolConfig{N: 1, C: 1, H: 4, W: 4, Window: 2, Stride: 2}
	in := tensor.New(cfg.InputShape(), tensor.NCHW)
	copy(in.Data, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	})
	out, err := Pool(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{6, 8, 14, 16}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestPoolOverlappedWindows(t *testing.T) {
	cfg := PoolConfig{N: 1, C: 1, H: 5, W: 5, Window: 3, Stride: 2}
	in := tensor.Sequential(cfg.InputShape(), tensor.NCHW)
	out, err := Pool(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Max of a 3x3 window is its bottom-right corner for a sequential fill.
	want := []float32{12, 14, 22, 24}
	for i, w := range want {
		if out.Data[i] != w {
			t.Errorf("out[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
}

func TestPoolLayoutInvariance(t *testing.T) {
	cfg := PoolConfig{N: 4, C: 3, H: 12, W: 12, Window: 3, Stride: 2}
	var ref *tensor.Tensor
	for _, l := range tensor.Layouts {
		in := tensor.Random(cfg.InputShape(), l, 21)
		out, err := Pool(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			continue
		}
		if !tensor.AllClose(ref, out, 0) {
			t.Errorf("layout %v changed the pooling result", l)
		}
	}
}

func TestPoolCoarsenedMatchesPool(t *testing.T) {
	cfgs := []PoolConfig{
		{N: 2, C: 3, H: 12, W: 12, Window: 3, Stride: 2},
		{N: 1, C: 2, H: 28, W: 28, Window: 2, Stride: 2},
		{N: 2, C: 1, H: 13, W: 13, Window: 3, Stride: 2},
	}
	expansions := []PoolExpansion{{1, 1}, {2, 2}, {3, 2}, {4, 4}}
	for _, cfg := range cfgs {
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, 33)
		want, err := Pool(in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range expansions {
			got, err := PoolCoarsened(in, cfg, e.H, e.W)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.AllClose(want, got, 0) {
				t.Errorf("%v expansion %dx%d: coarsened pooling differs from reference", cfg, e.H, e.W)
			}
		}
	}
}

// Property: for random shapes and windows the coarsened kernel always equals
// the plain kernel.
func TestPoolCoarsenedPropertyQuick(t *testing.T) {
	f := func(rawH, rawWin, rawStride, rawEH, rawEW uint8) bool {
		h := int(rawH%14) + 4
		win := int(rawWin%3) + 2
		stride := int(rawStride%2) + 1
		if win > h {
			win = h
		}
		cfg := PoolConfig{N: 2, C: 2, H: h, W: h, Window: win, Stride: stride}
		if cfg.Validate() != nil {
			return true
		}
		in := tensor.Random(cfg.InputShape(), tensor.CHWN, uint64(h*win*stride)+1)
		want, err := Pool(in, cfg)
		if err != nil {
			return false
		}
		got, err := PoolCoarsened(in, cfg, int(rawEH%4)+1, int(rawEW%4)+1)
		if err != nil {
			return false
		}
		return tensor.AllClose(want, got, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPoolValidation(t *testing.T) {
	cfg := PoolConfig{N: 1, C: 1, H: 4, W: 4, Window: 2, Stride: 2}
	wrong := tensor.New(tensor.Shape{N: 1, C: 1, H: 5, W: 4}, tensor.NCHW)
	if _, err := Pool(wrong, cfg); err != nil == false {
		t.Error("shape mismatch must be rejected")
	}
	if _, err := PoolCoarsened(tensor.New(cfg.InputShape(), tensor.NCHW), cfg, 0, 1); err == nil {
		t.Error("non-positive expansion must be rejected")
	}
	if _, err := PoolCoarsened(wrong, cfg, 1, 1); err == nil {
		t.Error("shape mismatch must be rejected by the coarsened kernel")
	}
	if _, err := Pool(tensor.New(cfg.InputShape(), tensor.NCHW), PoolConfig{}); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestPoolExpansionOutputs(t *testing.T) {
	if (PoolExpansion{H: 2, W: 3}).Outputs() != 6 {
		t.Error("Outputs should be H*W")
	}
}

// BenchmarkPoolInto is pooling's roofline row: PoolInto on LeNet's pool1 at
// batch 128 and Cifar10's at batch 8, in NCHW and (suffix -chwn) CHWN, into
// an output allocated once.  It reports GB/s of input plus output bytes, the
// traffic a memory-bound kernel cannot avoid, to read against the root
// package's BenchmarkStreamRead.
func BenchmarkPoolInto(b *testing.B) {
	for _, s := range []struct {
		name string
		cfg  PoolConfig
	}{
		{"lenet@n128/pool1", PoolConfig{N: 128, C: 16, H: 28, W: 28, Window: 2, Stride: 2}},
		{"cifar10@n8/pool1", PoolConfig{N: 8, C: 64, H: 24, W: 24, Window: 3, Stride: 2}},
	} {
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			name := s.name
			if lay == tensor.CHWN {
				name += "-chwn"
			}
			b.Run(name, func(b *testing.B) {
				in, out := tensor.Random(s.cfg.InputShape(), lay, 1), tensor.New(s.cfg.OutputShape(), lay)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := PoolInto(in, out, s.cfg); err != nil {
						b.Fatal(err)
					}
				}
				bytes := float64(s.cfg.InputShape().Bytes() + s.cfg.OutputShape().Bytes())
				b.ReportMetric(bytes/1e9/(b.Elapsed().Seconds()/float64(b.N)), "GB/s")
			})
		}
	}
}
