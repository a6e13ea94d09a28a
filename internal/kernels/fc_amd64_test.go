//go:build amd64 && !purego

package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestFCAssemblyMatchesPureGo drives the two micro-kernel bodies on one
// block, whole and partial, on adversarial values at 0, 1 and odd step
// counts with contiguous and strided rows, accumulating onto zeros and onto
// adversarial sums, and wants the same bits in every row the block holds.
// Then it runs FCInto on ragged shapes with the assembly on and off.
func TestFCAssemblyMatchesPureGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("the CPU or the OS lacks AVX2 and FMA: the assembly kernel never runs here")
	}
	defer func() { useAVX2 = true }()
	r := rand.New(rand.NewSource(67))
	for _, steps := range []int{0, 1, 3, 17, 255} {
		for _, st := range []struct{ ra, sa, sb, rows int }{
			{max(steps, 1), 1, fcNR, fcMR},
			{1, fcMR + 3, fcNR + 5, fcMR},
			{max(steps, 1), 1, fcNR, 5},
			{1, 2, fcNR, 1},
		} {
			a, _ := guarded(nil, (st.rows-1)*st.ra+max(steps-1, 0)*st.sa+1)
			b, _ := guarded(nil, max(steps-1, 0)*st.sb+fcNR)
			adversarialFloats(r, a)
			adversarialFloats(r, b)
			for _, onto := range []string{"zeros", "sums"} {
				var accAsm, accGo [fcMR * fcPlaneLanes]float64
				if onto == "sums" {
					var init [fcMR * fcPlaneLanes]float32
					adversarialFloats(r, init[:])
					for i, v := range init {
						accAsm[i] = float64(v) * float64(init[(i+7)%len(init)])
					}
				}
				accGo = accAsm
				var off [fcMR]int
				for r := range off {
					off[r] = min(r, st.rows-1) * st.ra
				}
				fcMicroAVX2(steps, &a[0], &off, st.sa, &b[0], st.sb, &accAsm[0])
				fcMicroGo(steps, a, st.ra, st.sa, b, st.sb, 1, st.rows, fcNR, accGo[:])
				for i := 0; i < st.rows*fcPlaneLanes; i++ {
					if math.Float64bits(accAsm[i]) != math.Float64bits(accGo[i]) {
						t.Fatalf("steps=%d strides=%+v onto %s: sum %d = %v, portable body %v", steps, st, onto, i, accAsm[i], accGo[i])
					}
				}
			}
		}
	}
	for _, dims := range [][3]int{{8, 4, 9}, {19, 9, 33}, {5, 3, 2}, {16, 13, 1}} {
		for pattern := 0; pattern < 8; pattern++ {
			c := fcCase(r, dims[0], dims[1], dims[2], pattern&1 != 0, pattern&2 != 0, pattern&4 != 0)
			adversarialFloats(r, c.A)
			adversarialFloats(r, c.B)
			pure := c
			pure.Out = append([]float32(nil), c.Out...)
			useAVX2 = true
			FCInto(c)
			useAVX2 = false
			FCInto(pure)
			equalBits(t, fmt.Sprintf("%v pattern %03b", dims, pattern), c.Out, pure.Out)
		}
	}
}
