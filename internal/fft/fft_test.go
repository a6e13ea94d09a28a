package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// The transforms store float32 between passes, so the tests compare at
// float32 precision scaled by the magnitude of the data.
const splitTol = 1e-5

// split spreads x over fresh re/im planes.
func split(x []complex128) (re, im []float32) {
	re, im = make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		re[i], im[i] = float32(real(v)), float32(imag(v))
	}
	return re, im
}

// joined is the inverse of split.
func joined(re, im []float32) []complex128 {
	x := make([]complex128, len(re))
	for i := range x {
		x[i] = complex(float64(re[i]), float64(im[i]))
	}
	return x
}

// forward runs the 1-D transform of x: a 1×n matrix has only its row pass.
func forward(t *testing.T, x []complex128) []complex128 {
	t.Helper()
	re, im := split(x)
	if err := Forward2DSplit(re, im, 1, len(x)); err != nil {
		t.Fatal(err)
	}
	return joined(re, im)
}

// naiveDFT2D is the O((rows·cols)²) definition of the 2-D forward DFT.
func naiveDFT2D(x []complex128, rows, cols int) []complex128 {
	out := make([]complex128, len(x))
	for u := 0; u < rows; u++ {
		for v := 0; v < cols; v++ {
			var sum complex128
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					angle := -2 * math.Pi * (float64(u*r)/float64(rows) + float64(v*c)/float64(cols))
					sum += x[r*cols+c] * cmplx.Rect(1, angle)
				}
			}
			out[u*cols+v] = sum
		}
	}
	return out
}

func randomComplex(r *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(float32(r.NormFloat64())), float64(float32(r.NormFloat64())))
	}
	return x
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 17: 32, 28: 32, 224: 256, 226: 256, 255: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 100} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if err := Forward2DSplit(make([]float32, 3), make([]float32, 3), 1, 3); err == nil {
		t.Error("expected error for non-power-of-two length")
	}
	if err := Forward2DSplit(make([]float32, 8), make([]float32, 7), 2, 4); err == nil {
		t.Error("expected error for a plane shorter than rows*cols")
	}
}

func TestForwardKnownValues(t *testing.T) {
	// DFT of [1,1,1,1] is [4,0,0,0].
	x := forward(t, []complex128{1, 1, 1, 1})
	want := []complex128{4, 0, 0, 0}
	for i := range x {
		if cmplx.Abs(x[i]-want[i]) > splitTol {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}

	// DFT of an impulse is flat.
	y := forward(t, []complex128{1, 0, 0, 0, 0, 0, 0, 0})
	for i := range y {
		if cmplx.Abs(y[i]-1) > splitTol {
			t.Errorf("impulse spectrum[%d] = %v, want 1", i, y[i])
		}
	}
}

func TestForward2DMatchesNaiveDFT(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, c := range []struct{ rows, cols int }{{1, 16}, {16, 1}, {4, 4}, {8, 16}, {16, 8}} {
		x := randomComplex(r, c.rows*c.cols)
		want := naiveDFT2D(x, c.rows, c.cols)
		re, im := split(x)
		if err := Forward2DSplit(re, im, c.rows, c.cols); err != nil {
			t.Fatal(err)
		}
		for i, got := range joined(re, im) {
			if cmplx.Abs(got-want[i]) > splitTol*float64(len(x)) {
				t.Fatalf("%dx%d: spectrum[%d] = %v, want %v", c.rows, c.cols, i, got, want[i])
			}
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 8, 64, 256} {
		orig := randomComplex(r, n)
		re, im := split(orig)
		if err := Forward2DSplit(re, im, 1, n); err != nil {
			t.Fatal(err)
		}
		if err := Inverse2DSplit(re, im, 1, n); err != nil {
			t.Fatal(err)
		}
		for i, got := range joined(re, im) {
			if cmplx.Abs(got-orig[i]) > splitTol {
				t.Fatalf("n=%d: round trip error at %d: %v vs %v", n, i, got, orig[i])
			}
		}
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/N) sum |X|^2 for the unnormalised forward transform.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		n := NextPow2(len(raw))
		if n > 256 {
			n = 256
		}
		re, im := make([]float32, n), make([]float32, n)
		var timeEnergy float64
		for i := 0; i < n && i < len(raw); i++ {
			v := float32(math.Mod(raw[i], 100))
			if v != v || math.IsInf(float64(v), 0) {
				v = 0
			}
			re[i] = v
			timeEnergy += float64(v) * float64(v)
		}
		if err := Forward2DSplit(re, im, 1, n); err != nil {
			return false
		}
		var freqEnergy float64
		for i := range re {
			freqEnergy += float64(re[i])*float64(re[i]) + float64(im[i])*float64(im[i])
		}
		freqEnergy /= float64(n)
		return math.Abs(timeEnergy-freqEnergy) <= splitTol*(1+timeEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 64
	a, b := randomComplex(r, n), randomComplex(r, n)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = complex128(complex64(a[i] + b[i]))
	}
	fa, fb, fsum := forward(t, a), forward(t, b), forward(t, sum)
	for i := 0; i < n; i++ {
		if cmplx.Abs(fsum[i]-(fa[i]+fb[i])) > splitTol*float64(n) {
			t.Fatalf("linearity violated at %d: %v vs %v", i, fsum[i], fa[i]+fb[i])
		}
	}
}

func TestMatrix2DRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const rows, cols = 16, 32
	orig := randomComplex(r, rows*cols)
	re, im := split(orig)
	if err := Forward2DSplit(re, im, rows, cols); err != nil {
		t.Fatal(err)
	}
	if err := Inverse2DSplit(re, im, rows, cols); err != nil {
		t.Fatal(err)
	}
	for i, got := range joined(re, im) {
		if cmplx.Abs(got-orig[i]) > splitTol {
			t.Fatalf("2D round trip error at %d: %v vs %v", i, got, orig[i])
		}
	}
}

func TestForward2DRejectsNonPow2(t *testing.T) {
	re, im := make([]float32, 24), make([]float32, 24)
	if err := Forward2DSplit(re, im, 3, 4); err == nil {
		t.Error("expected error for 3-row matrix")
	}
	if err := Inverse2DSplit(re, im, 4, 6); err == nil {
		t.Error("expected error for 6-column matrix")
	}
}
