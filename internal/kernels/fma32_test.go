package kernels

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// exactFMA32 is the reference for one reduction step of the GEMM
// micro-kernel: s + a·b computed exactly in math/big and rounded once to the
// nearest float32, ties to even.  Infinite and NaN operands, and an exactly
// zero sum, take float64 arithmetic: those results are exact there and carry
// IEEE 754's signs.
func exactFMA32(a, b, s float32) float32 {
	fa, fb, fs := float64(a), float64(b), float64(s)
	for _, v := range []float64{fa, fb, fs} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return float32(fs + fa*fb)
		}
	}
	// Two subnormal factors give 2^-298 with 48 bits, the addend reaches
	// 2^128: 600 bits hold every sum exactly.
	sum := new(big.Float).SetPrec(600)
	sum.Mul(big.NewFloat(fa), big.NewFloat(fb))
	sum.Add(sum, big.NewFloat(fs))
	if sum.Sign() == 0 {
		return float32(fs + fa*fb)
	}
	f, _ := sum.Float32()
	return f
}

// checkFMA32 compares each result for s + a·b with the reference; a NaN
// wants a NaN of any payload.
func checkFMA32(t *testing.T, what string, a, b, s float32, got ...float32) {
	t.Helper()
	want := exactFMA32(a, b, s)
	for _, g := range got {
		if math.Float32bits(g) != math.Float32bits(want) && !(g != g && want != want) {
			t.Fatalf("%s: %g + %g·%g (%#x + %#x·%#x) = %g (%#x), want %g (%#x)", what, s, a, b,
				math.Float32bits(s), math.Float32bits(a), math.Float32bits(b),
				g, math.Float32bits(g), want, math.Float32bits(want))
		}
	}
}

// fma32Value draws an operand: any bit pattern (kind 0: NaNs, infinities,
// subnormals and overflowing products), subnormal, zero, infinite and tiny
// values (kind 3), or an ordinary value.
func fma32Value(r *rand.Rand, kind int) float32 {
	switch kind {
	case 0:
		return math.Float32frombits(r.Uint32())
	case 3:
		switch r.Intn(4) {
		case 0:
			specials := []float32{0, math.SmallestNonzeroFloat32, 0x1p-126, 1, float32(math.Inf(1))}
			return specials[r.Intn(len(specials))] * fma32Sign(r)
		case 1:
			return math.Float32frombits(r.Uint32() & 0x807fffff) // subnormal or zero
		case 2:
			return float32(math.Ldexp(r.Float64()+0.5, -60-r.Intn(40))) * fma32Sign(r)
		}
	}
	return float32(math.Ldexp(r.Float64()+0.5, r.Intn(80)-40)) * fma32Sign(r)
}

func fma32Sign(r *rand.Rand) float32 {
	return float32(1 - 2*r.Intn(2))
}

// fma32Tile fills the factors and addends of one gemmMR×gemmNR tile with one
// kind of triple:
//
//	0  random bit patterns;
//	1  cancelling sums, s = −RN(a·b), whose result is the product's rounding error;
//	2  sums within one float64 ulp of a float32 midpoint, where rounding to
//	   float64 and then to float32 breaks the tie the wrong way;
//	3  subnormal, zero, infinite and tiny factors and addends.
//
// Kind 2 gives every addend one ulp, 2^k, so each sum s ± h(1 − u²·2^-46)
// lies within h·u²·2^-46 < 2^(k-29), one float64 ulp of the sum, of the
// midpoint s ± h, h = 2^(k-1): the factors are ±ha(1 + u·2^-23) and
// ±hb(1 − u·2^-23) with powers of two ha·hb = h and u < 2^9.
func fma32Tile(r *rand.Rand, kind int, a, b, s []float32) {
	if kind == 2 {
		k, u := r.Intn(254)-149, float64(1+r.Intn(511))
		ka := (k - 1) / 2
		for i := range a {
			a[i] = float32(math.Ldexp(1+u*0x1p-23, ka)) * fma32Sign(r)
		}
		for j := range b {
			b[j] = float32(math.Ldexp(1-u*0x1p-23, k-1-ka)) * fma32Sign(r)
		}
		for i := range s {
			m := float64(r.Intn(1 << 23))
			if k == -149 && r.Intn(2) == 0 {
				s[i] = float32(math.Ldexp(m, k)) * fma32Sign(r) // subnormal
			} else {
				s[i] = float32(math.Ldexp(1+m*0x1p-23, k+23)) * fma32Sign(r)
			}
		}
		return
	}
	for i := range a {
		a[i] = fma32Value(r, kind)
	}
	for j := range b {
		b[j] = fma32Value(r, kind)
	}
	for i := range s {
		if kind == 1 {
			s[i] = -(a[i/gemmNR] * b[i%gemmNR])
		} else {
			s[i] = fma32Value(r, kind)
		}
	}
}

// microStep runs one reduction step over a tile whose C starts as s, through
// gemmMicroGo, through gemmMicro and through gemmMicro2 with a as both slabs
// (the assembly bodies where the host has them), and returns the pure-Go
// result and the other three: gemmMicro's, then each slab's of gemmMicro2.
func microStep(a, b, s []float32) (pure []float32, micro [3][]float32) {
	var rows panelRows
	rb := rows.of(b, 1)
	pure, micro[0] = append([]float32(nil), s...), append([]float32(nil), s...)
	gemmMicroGo(1, a, rb, pure, gemmNR, true)
	gemmMicro(1, a, rb, micro[0], gemmNR, true)
	pair := append(append([]float32(nil), s...), s...)
	gemmMicro2(1, a, a, rb, pair, gemmNR, true)
	micro[1], micro[2] = pair[:len(s)], pair[len(s):]
	return pure, micro
}

// TestFMA32IsCorrectlyRounded holds the micro-kernel's reduction step —
// fma32, gemmMicroGo, and gemmMicro's and gemmMicro2's assembly bodies where
// this host runs them — to the exact reference, one step over whole tiles of each kind of triple fma32Tile
// draws.
func TestFMA32IsCorrectlyRounded(t *testing.T) {
	tiles := 5000
	if testing.Short() {
		tiles = 200
	}
	r := rand.New(rand.NewSource(48))
	a, b, s := make([]float32, gemmMR), make([]float32, gemmNR), make([]float32, gemmMR*gemmNR)
	for tile := 0; tile < tiles; tile++ {
		kind := tile % 4
		fma32Tile(r, kind, a, b, s)
		pure, micro := microStep(a, b, s)
		for i := range s {
			aa, bb := a[i/gemmNR], b[i%gemmNR]
			checkFMA32(t, fmt.Sprintf("tile %d kind %d element %d", tile, kind, i), aa, bb, s[i], fma32(aa, bb, s[i]), pure[i], micro[0][i], micro[1][i], micro[2][i])
		}
	}
}

// FuzzFMA32 checks the reduction step on arbitrary bit patterns, through
// fma32 and through the first element of every micro-kernel entry.  Random bits
// almost never land next to a midpoint, so the first seed is one where
// rounding to float64 first gives the wrong float32.
func FuzzFMA32(f *testing.F) {
	f.Add(uint32(0x4d800010), uint32(0x4dffffe0), uint32(0xe8476921))
	f.Add(uint32(0x3f800001), uint32(0x3f7ffffe), uint32(0xbf800000))
	f.Add(uint32(0x00000001), uint32(0x3f000000), uint32(0x80000000))
	f.Add(uint32(0x7f800000), uint32(0x00000000), uint32(0x3f800000))
	f.Fuzz(func(t *testing.T, abits, bbits, sbits uint32) {
		aa, bb, ss := math.Float32frombits(abits), math.Float32frombits(bbits), math.Float32frombits(sbits)
		a, b, s := make([]float32, gemmMR), make([]float32, gemmNR), make([]float32, gemmMR*gemmNR)
		a[0], b[0], s[0] = aa, bb, ss
		pure, micro := microStep(a, b, s)
		checkFMA32(t, "fma32, gemmMicroGo, gemmMicro, gemmMicro2", aa, bb, ss, fma32(aa, bb, ss), pure[0], micro[0][0], micro[1][0], micro[2][0])
	})
}
