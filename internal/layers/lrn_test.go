package layers

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"memcnn/internal/tensor"
)

// scaleOne is lrnScale on a one-element tile.
func scaleOne(x, s, e float64) float32 {
	var dst [1]float32
	lrnScale(dst[:], 1, []float64{x}, []float64{s}, e)
	return dst[0]
}

// ulpGap is how many float64 ulps apart a and b are (both finite, nonzero and
// of one sign).
func ulpGap(a, b float64) int64 {
	d := int64(math.Float64bits(a)) - int64(math.Float64bits(b))
	if d < 0 {
		d = -d
	}
	return d
}

// TestLRNQuotientStaysNearPow sweeps s over [1, 2^64) log-uniformly, with the
// three kinds of x lrnScale is called with (a float32 input, a product of two
// float32 values, s itself), for both exponents.  The quotient must stay
// within lrnGuard/64 float64 ulps of the math.Pow form, so the guard is far
// wider than any gap, and lrnScale must return the math.Pow form's bits.
func TestLRNQuotientStaysNearPow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f32 := func() float64 {
		return float64(float32(math.Ldexp(rng.Float64()+0.5, rng.Intn(41)-20)))
	}
	const samples = 1 << 18
	for _, e := range []float64{-0.75, -1.75} {
		var worst, fallbacks int64
		for i := 0; i < samples; i++ {
			s := math.Exp2(64 * rng.Float64())
			var x float64
			switch i % 3 {
			case 0:
				x = f32()
			case 1:
				x = f32() * f32()
			case 2:
				x = s
			}
			if rng.Intn(2) == 0 {
				x = -x
			}
			y, want := x/lrnDenominator(s, e), x*math.Pow(s, e)
			worst = max(worst, ulpGap(y, want))
			if mid := int64(math.Float64bits(y)&(1<<29-1)) - 1<<28; -lrnGuard <= mid && mid <= lrnGuard {
				fallbacks++
			}
			if got := scaleOne(x, s, e); math.Float32bits(got) != math.Float32bits(float32(want)) {
				t.Fatalf("lrnScale(%v, %v, %v) = %v, want %v", x, s, e, got, float32(want))
			}
		}
		t.Logf("e = %v: largest gap %d ulps, %d of %d near a midpoint", e, worst, fallbacks, samples)
		if worst > lrnGuard/64 {
			t.Errorf("e = %v: the quotient is %d ulps from the math.Pow form, more than lrnGuard/64 = %d", e, worst, lrnGuard/64)
		}
	}
}

// TestLRNScaleFallsBackAtAMidpoint builds a backward product dY·x whose
// quotient lands exactly on a float32 rounding midpoint: 4097·4099 is odd and
// needs 25 bits, s = 4096 makes s·r·√r = 2^21 exact, and math.Pow(4096, -1.75)
// reads one ulp under 2^-21, so the two forms round to neighbouring float32
// values.  lrnScale must see the midpoint and return the math.Pow form's bits.
func TestLRNScaleFallsBackAtAMidpoint(t *testing.T) {
	x, s, e := float64(float32(4097))*float64(float32(4099)), 4096.0, -1.75
	y := x / lrnDenominator(s, e)
	if mid := math.Float64bits(y) & (1<<29 - 1); mid != 1<<28 {
		t.Fatalf("quotient %v has low bits %#x, not the midpoint", y, mid)
	}
	want := float32(x * math.Pow(s, e))
	if float32(y) == want {
		t.Fatalf("the quotient rounds to %v as the math.Pow form does: the case tests nothing", want)
	}
	if got := scaleOne(x, s, e); math.Float32bits(got) != math.Float32bits(want) {
		t.Errorf("lrnScale at a midpoint = %v, want the math.Pow form's %v", got, want)
	}
}

// TestLRNScaleEdgeCases: another exponent runs the math.Pow form, a NaN s (a
// NaN neighbour in the window) gives NaN even for a zero x, an infinite s
// runs the math.Pow form, and a -0 stays -0; through the layer, both passes
// keep the old loops' bits around a NaN and a -0 input.
func TestLRNScaleEdgeCases(t *testing.T) {
	for _, e := range []float64{-0.5, -0.8, -1.5} {
		for _, s := range []float64{1.5, 37, 1e9} {
			if got, want := scaleOne(0.3, s, e), float32(0.3*math.Pow(s, e)); math.Float32bits(got) != math.Float32bits(want) {
				t.Errorf("lrnScale(0.3, %v, %v) = %v, want the math.Pow form's %v", s, e, got, want)
			}
		}
	}
	nan := math.NaN()
	for _, e := range []float64{-0.75, -1.75} {
		for _, x := range []float64{0, 2} {
			if got := scaleOne(x, nan, e); !math.IsNaN(float64(got)) {
				t.Errorf("lrnScale(%v, NaN, %v) = %v, want NaN", x, e, got)
			}
		}
		if got := scaleOne(3, math.Inf(1), e); got != 0 {
			t.Errorf("lrnScale(3, +Inf, %v) = %v, want 0", e, got)
		}
		if got := scaleOne(math.Copysign(0, -1), 5, e); math.Float32bits(got) != 1<<31 {
			t.Errorf("lrnScale(-0, 5, %v) = %v (%#x), want -0", e, got, math.Float32bits(got))
		}
	}

	for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
		lrn, err := NewLRN("lrn", tensor.Shape{N: 2, C: 9, H: 2, W: 3}, 5, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		in := tensor.Random(lrn.Shape, lay, 5)
		dOut := tensor.Random(lrn.Shape, lay, 6)
		for i := range in.Data {
			in.Data[i] *= 1e3
		}
		in.Set(1, 4, 1, 2, float32(nan))
		in.Set(0, 2, 0, 1, float32(math.Copysign(0, -1)))
		got, want := tensor.New(lrn.Shape, lay), tensor.New(lrn.Shape, lay)
		if err := lrn.ForwardInto(in, got, nil); err != nil {
			t.Fatal(err)
		}
		oldLRNForward(lrn, in, want)
		sameBits(t, fmt.Sprintf("forward %v", lay), got, want)
		if v := got.At(1, 2, 1, 2); !math.IsNaN(float64(v)) {
			t.Errorf("%v: a channel two below the NaN normalises to %v, want NaN", lay, v)
		}
		if v := got.At(0, 2, 0, 1); math.Float32bits(v) != 1<<31 {
			t.Errorf("%v: -0 normalises to %v, want -0", lay, v)
		}
		scratch := make([]float32, lrn.BackwardWorkspaceElems())
		if err := lrn.BackwardDataInto(in, dOut, got, scratch); err != nil {
			t.Fatal(err)
		}
		oldLRNBackward(lrn, in, dOut, want)
		sameBits(t, fmt.Sprintf("backward %v", lay), got, want)
	}
}

// TestLRNForwardMatchesOldLoopAtAlexNetMagnitude runs the forward oracle on
// inputs of the magnitude AlexNet's ReLU hands its LRN layers (up to 1e3, so
// s reaches about 30 instead of staying near 1), at norm1's channel count.
func TestLRNForwardMatchesOldLoopAtAlexNetMagnitude(t *testing.T) {
	lrn, err := NewLRN("norm1", tensor.Shape{N: 2, C: 96, H: 3, W: 70}, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	forwardMatchesOldScaled(t, lrn, lrn.Shape, 1e3, func(in, dst *tensor.Tensor) { oldLRNForward(lrn, in, dst) })
}

// TestLRNBackwardMatchesOldLoop pins the stride walk of the LRN backward to
// the At/Set loop it replaced, in NCHW and CHWN at batch 1, 3 and 4, on unit
// and AlexNet-magnitude inputs, with the channels in one tile of lrnLanes and
// in two.
func TestLRNBackwardMatchesOldLoop(t *testing.T) {
	nan := float32(math.NaN())
	for _, batch := range []int{1, 3, 4} {
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			for _, tc := range []struct {
				c     int
				scale float32
			}{{7, 1}, {7, 1e3}, {lrnLanes + 6, 1e3}} {
				scale := tc.scale
				// A window cut at both ends of the channels.
				lrn, err := NewLRN("lrn", tensor.Shape{N: batch, C: tc.c, H: 3, W: 5}, 5, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				in, dOut := tensor.Random(lrn.Shape, lay, 31), tensor.Random(lrn.Shape, lay, 32)
				for i := range in.Data {
					in.Data[i] *= scale
				}
				scratch := make([]float32, lrn.BackwardWorkspaceElems())
				got, want := tensor.New(lrn.Shape, lay), tensor.New(lrn.Shape, lay)
				for _, s := range [][]float32{scratch, got.Data} {
					for i := range s {
						s[i] = nan
					}
				}
				if err := lrn.BackwardDataInto(in, dOut, got, scratch); err != nil {
					t.Fatal(err)
				}
				oldLRNBackward(lrn, in, dOut, want)
				sameBits(t, fmt.Sprintf("batch %d %v C=%d ×%v", batch, lay, tc.c, scale), got, want)
			}
		}
	}
}

// sameBits fails unless got and want hold the same bits.
func sameBits(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}
