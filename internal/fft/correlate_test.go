package fft

import (
	"math"
	"math/rand"
	"testing"
)

// naiveCorrelateValid is the O(H*W*Fh*Fw) reference used to validate the FFT
// path.
func naiveCorrelateValid(img []float32, rows, cols int, filt []float32, fh, fw int) []float32 {
	outH, outW := rows-fh+1, cols-fw+1
	out := make([]float32, outH*outW)
	for r := 0; r < outH; r++ {
		for c := 0; c < outW; c++ {
			var acc float64
			for i := 0; i < fh; i++ {
				for j := 0; j < fw; j++ {
					acc += float64(img[(r+i)*cols+(c+j)]) * float64(filt[i*fw+j])
				}
			}
			out[r*outW+c] = float32(acc)
		}
	}
	return out
}

// padReal embeds a rows×cols real image at the origin of zeroed padR×padC
// split planes.
func padReal(img []float32, rows, cols, padR, padC int) (re, im []float32) {
	re, im = make([]float32, padR*padC), make([]float32, padR*padC)
	for r := 0; r < rows; r++ {
		copy(re[r*padC:r*padC+cols], img[r*cols:(r+1)*cols])
	}
	return re, im
}

// correlateValid is the "valid" 2-D cross-correlation of a rows×cols image
// with an fh×fw filter (Equation 1 of the paper for one image, input channel
// and output channel) through the three functions the convolution kernel
// calls: both operands transformed, the spectrum product accumulated into a
// zero plane, the sum transformed back and cropped to (rows-fh+1)×(cols-fw+1).
func correlateValid(tb testing.TB, img []float32, rows, cols int, filt []float32, fh, fw int) []float32 {
	tb.Helper()
	padR, padC := NextPow2(rows+fh-1), NextPow2(cols+fw-1)
	imgRe, imgIm := padReal(img, rows, cols, padR, padC)
	filtRe, filtIm := padReal(filt, fh, fw, padR, padC)
	if err := Forward2DSplit(imgRe, imgIm, padR, padC); err != nil {
		tb.Fatal(err)
	}
	if err := Forward2DSplit(filtRe, filtIm, padR, padC); err != nil {
		tb.Fatal(err)
	}
	accRe, accIm := make([]float32, padR*padC), make([]float32, padR*padC)
	SpectrumCorrelateSplit(accRe, accIm, imgRe, imgIm, filtRe, filtIm)
	if err := Inverse2DSplit(accRe, accIm, padR, padC); err != nil {
		tb.Fatal(err)
	}
	outH, outW := rows-fh+1, cols-fw+1
	out := make([]float32, 0, outH*outW)
	for r := 0; r < outH; r++ {
		out = append(out, accRe[r*padC:r*padC+outW]...)
	}
	return out
}

func TestCorrelateValidMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	cases := []struct{ rows, cols, fh, fw int }{
		{8, 8, 3, 3},
		{12, 12, 5, 5},
		{28, 28, 5, 5},
		{7, 9, 3, 2},
		{5, 5, 5, 5}, // output is a single value
		{6, 6, 1, 1}, // 1x1 filter
	}
	for _, c := range cases {
		img := make([]float32, c.rows*c.cols)
		filt := make([]float32, c.fh*c.fw)
		for i := range img {
			img[i] = float32(r.NormFloat64())
		}
		for i := range filt {
			filt[i] = float32(r.NormFloat64())
		}
		got := correlateValid(t, img, c.rows, c.cols, filt, c.fh, c.fw)
		want := naiveCorrelateValid(img, c.rows, c.cols, filt, c.fh, c.fw)
		if len(got) != len(want) {
			t.Fatalf("%+v: length %d, want %d", c, len(got), len(want))
		}
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-3 {
				t.Fatalf("%+v: output[%d] = %v, want %v", c, i, got[i], want[i])
			}
		}
	}
}

func TestCorrelateValidIdentityFilter(t *testing.T) {
	// A 1x1 unit filter must reproduce the image.
	img := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9}
	got := correlateValid(t, img, 3, 3, []float32{1}, 1, 1)
	for i := range img {
		if math.Abs(float64(got[i]-img[i])) > 1e-5 {
			t.Fatalf("identity filter altered element %d: %v", i, got[i])
		}
	}
}

func TestConj(t *testing.T) {
	// The product conjugates the filter spectrum: (1+2j)·conj(-3-4j) = -11-2j.
	accRe, accIm := []float32{0}, []float32{0}
	SpectrumCorrelateSplit(accRe, accIm, []float32{1}, []float32{2}, []float32{-3}, []float32{-4})
	if accRe[0] != -11 || accIm[0] != -2 {
		t.Errorf("(1+2j)·conj(-3-4j) = %v%+vj, want -11-2j", accRe[0], accIm[0])
	}
}

func TestSpectrumCorrelateAccumulates(t *testing.T) {
	// Two channels of an impulse image correlated with unit filters should
	// accumulate to 2 at the origin.
	imgRe, imgIm := padReal([]float32{1, 0, 0, 0}, 2, 2, 4, 4)
	filtRe, filtIm := padReal([]float32{1}, 1, 1, 4, 4)
	if err := Forward2DSplit(imgRe, imgIm, 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := Forward2DSplit(filtRe, filtIm, 4, 4); err != nil {
		t.Fatal(err)
	}
	accRe, accIm := make([]float32, 16), make([]float32, 16)
	SpectrumCorrelateSplit(accRe, accIm, imgRe, imgIm, filtRe, filtIm)
	SpectrumCorrelateSplit(accRe, accIm, imgRe, imgIm, filtRe, filtIm)
	if err := Inverse2DSplit(accRe, accIm, 4, 4); err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(accRe[0])-2) > 1e-6 {
		t.Errorf("accumulated correlation at origin = %v, want 2", accRe[0])
	}
}

func BenchmarkCorrelateValid28x28(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	img := make([]float32, 28*28)
	filt := make([]float32, 25)
	for i := range img {
		img[i] = float32(r.NormFloat64())
	}
	for i := range filt {
		filt[i] = float32(r.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		correlateValid(b, img, 28, 28, filt, 5, 5)
	}
}
