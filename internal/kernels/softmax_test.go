package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomLogits(n, classes int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([]float32, n*classes)
	for i := range out {
		out[i] = float32(r.NormFloat64() * 3)
	}
	return out
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	cfg := SoftmaxConfig{N: 16, Classes: 100}
	out, err := Softmax(randomLogits(cfg.N, cfg.Classes, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < cfg.N; n++ {
		var sum float64
		for c := 0; c < cfg.Classes; c++ {
			v := out[n*cfg.Classes+c]
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", n, sum)
		}
	}
}

func TestSoftmaxMatchesFiveStep(t *testing.T) {
	cfg := SoftmaxConfig{N: 8, Classes: 37}
	in := randomLogits(cfg.N, cfg.Classes, 2)
	fused, err := Softmax(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	five, intermediates, err := SoftmaxFiveStep(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if intermediates != 2*cfg.N*cfg.Classes+2*cfg.N {
		t.Errorf("intermediate element count = %d", intermediates)
	}
	for i := range fused {
		if math.Abs(float64(fused[i]-five[i])) > 1e-5 {
			t.Fatalf("fused and five-step softmax disagree at %d: %v vs %v", i, fused[i], five[i])
		}
	}
}

func TestSoftmaxArgmaxPreserved(t *testing.T) {
	cfg := SoftmaxConfig{N: 4, Classes: 10}
	in := randomLogits(cfg.N, cfg.Classes, 3)
	out, err := Softmax(in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < cfg.N; n++ {
		amaxIn, amaxOut := 0, 0
		for c := 1; c < cfg.Classes; c++ {
			if in[n*cfg.Classes+c] > in[n*cfg.Classes+amaxIn] {
				amaxIn = c
			}
			if out[n*cfg.Classes+c] > out[n*cfg.Classes+amaxOut] {
				amaxOut = c
			}
		}
		if amaxIn != amaxOut {
			t.Errorf("row %d: softmax must preserve the argmax", n)
		}
	}
}

// Property: softmax is invariant to a constant shift of the logits (that is
// why the max-subtraction step exists).
func TestSoftmaxShiftInvarianceQuick(t *testing.T) {
	f := func(raw []float32, shift float32) bool {
		if len(raw) < 2 {
			return true
		}
		classes := len(raw)
		if classes > 64 {
			classes = 64
		}
		in := make([]float32, classes)
		shifted := make([]float32, classes)
		if shift != shift || shift > 50 || shift < -50 { // NaN / huge shifts excluded
			shift = 1
		}
		for i := 0; i < classes; i++ {
			v := raw[i]
			if v != v || v > 30 || v < -30 {
				v = 0
			}
			in[i] = v
			shifted[i] = v + shift
		}
		cfg := SoftmaxConfig{N: 1, Classes: classes}
		a, err1 := Softmax(in, cfg)
		b, err2 := Softmax(shifted, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxValidation(t *testing.T) {
	if _, err := Softmax(make([]float32, 10), SoftmaxConfig{N: 3, Classes: 4}); err == nil {
		t.Error("length mismatch must be rejected")
	}
	if _, err := Softmax(nil, SoftmaxConfig{}); err == nil {
		t.Error("invalid config must be rejected")
	}
	if _, _, err := SoftmaxFiveStep(make([]float32, 5), SoftmaxConfig{N: 2, Classes: 4}); err == nil {
		t.Error("length mismatch must be rejected by the five-step variant")
	}
	if _, _, err := SoftmaxFiveStep(nil, SoftmaxConfig{N: 0, Classes: 4}); err == nil {
		t.Error("invalid config must be rejected by the five-step variant")
	}
}

func BenchmarkSoftmaxFunctional(b *testing.B) {
	cfg := SoftmaxConfig{N: 128, Classes: 1000}
	in := randomLogits(cfg.N, cfg.Classes, 1)
	b.SetBytes(int64(cfg.Bytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Softmax(in, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
