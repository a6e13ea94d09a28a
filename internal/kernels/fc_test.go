package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// fcOracle is the contraction as a plain loop over every output element.
func fcOracle(c FC) []float32 {
	out := append([]float32(nil), c.Out...)
	for r := 0; r < c.Rows; r++ {
		for l := 0; l < c.Lanes; l++ {
			var acc float64
			for s := 0; s < c.Steps; s++ {
				acc += float64(c.A[r*c.ARow+s*c.AStep]) * float64(c.B[s*c.BStep+l*c.BLane])
			}
			out[r*c.OutRow+l*c.OutLane] = float32(acc)
		}
	}
	return out
}

// fcCase lays out a rows × lanes × steps contraction with A, B and Out each
// either row-major or transposed, so every pass's stride pattern is covered:
// lanes contiguous in B or not, in Out or not.
func fcCase(r *rand.Rand, rows, lanes, steps int, aT, bT, outT bool) FC {
	c := FC{Rows: rows, Lanes: lanes, Steps: steps,
		ARow: steps, AStep: 1, BStep: lanes, BLane: 1, OutRow: lanes, OutLane: 1}
	if aT {
		c.ARow, c.AStep = 1, rows
	}
	if bT {
		c.BStep, c.BLane = 1, steps
	}
	if outT {
		c.OutRow, c.OutLane = 1, rows
	}
	c.A, _ = guarded(r, rows*steps)
	c.B, _ = guarded(r, steps*lanes)
	c.Out, _ = guarded(nil, rows*lanes)
	for i := range c.Out {
		c.Out[i] = float32(math.NaN())
	}
	return c
}

// TestFCIntoMatchesTheLoop holds FCInto to the plain loop bit for bit on
// rows and lanes below, at and across the 8×4 block, every stride pattern,
// at one and two workers.
func TestFCIntoMatchesTheLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(61))
	for _, dims := range [][3]int{{1, 1, 1}, {8, 4, 1}, {8, 4, 33}, {19, 9, 7}, {3, 13, 40}, {25, 2, 5}, {9, 37, 600}} {
		for pattern := 0; pattern < 8; pattern++ {
			for _, workers := range []int{1, 2} {
				runtime.GOMAXPROCS(workers)
				c := fcCase(r, dims[0], dims[1], dims[2], pattern&1 != 0, pattern&2 != 0, pattern&4 != 0)
				want := fcOracle(c)
				FCInto(c)
				equalBits(t, fmt.Sprintf("%v pattern %03b workers %d", dims, pattern, workers), c.Out, want)
			}
		}
	}
}

// adversarialFloats fills s with float32 values that stress a float64
// contraction's rounding: signed zeros, the largest normal, the smallest
// subnormal, and random significands at every exponent from 2^-149 to 2^127.
func adversarialFloats(r *rand.Rand, s []float32) {
	special := []float32{0, float32(math.Copysign(0, -1)), math.MaxFloat32, -math.MaxFloat32,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1, -1}
	for i := range s {
		if r.Intn(4) == 0 {
			s[i] = special[r.Intn(len(special))]
			continue
		}
		m := 1 + float64(r.Intn(1<<23))/(1<<23)
		if r.Intn(2) == 0 {
			m = -m
		}
		s[i] = float32(math.Ldexp(m, r.Intn(277)-149))
	}
}
