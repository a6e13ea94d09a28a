package kernels

import "memcnn/internal/par"

// The fully-connected layer's three products — the forward, the data
// gradient and the filter gradient — are one contraction of two float32
// matrices summed in float64.  Each pass picks which free axis is the lanes:
// the one that is contiguous in B, so a step loads its lanes as one vector.
//
// The product of two float32 values is exact in float64: the significands
// multiply to at most 48 bits, inside float64's 53, and the exponent lands in
// [-298, 254], inside float64's normal range (its smallest normal is 2^-1022),
// even for two subnormal factors.  A fused multiply-add therefore rounds
// exactly as the multiply-then-add of a scalar loop does (the multiply never
// rounds), and the AVX2 body's VFMADD231PD gives the same bits as the
// portable body and as the loops the layers ran before.

// Blocking of the contraction.
const (
	fcMR = 8 // rows of a block, one float64 accumulator register each
	fcNR = 4 // lanes of a row, the four float64 of one YMM register
	// fcPlaneLanes is the lanes of one fan-out plane.  The filter gradient
	// steps over the batch alone, so a plane of one block would cost the
	// fan-out about as much as the block's work.
	fcPlaneLanes = 16 * fcNR
	// fcKC is the steps a plane's blocks take in turn before the next
	// fcKC: the data gradient's B is the weights read down their columns, a
	// page a step, and its blocks reuse those pages while they are cached.
	fcKC = 256
)

// FC is one fully-connected contraction: for r < Rows and l < Lanes,
//
//	Out[r·OutRow + l·OutLane] = float32(Σ_{s<Steps} float64(A[r·ARow + s·AStep]) · float64(B[s·BStep + l·BLane]))
//
// every sum in float64, s-ascending from zero and rounded to float32 once.
// The strides are in elements.
type FC struct {
	Rows, Lanes, Steps int
	A                  []float32
	ARow, AStep        int
	B                  []float32
	BStep, BLane       int
	Out                []float32
	OutRow, OutLane    int
}

// FCInto computes the contraction c in one par.Planes fan-out, a plane being
// fcMR rows × fcPlaneLanes lanes: its blocks of fcNR lanes take fcKC steps
// in turn into one float64 tile, which is rounded into Out at the end.  Every
// output element is one plane's and sums in one order, so the result is
// bit-identical for any worker count.  A block whose lanes are whole and
// contiguous in B runs the micro-kernel (fcMicro), any other its portable
// body.
//
//memcnn:noalloc
func FCInto(c FC) {
	par.Planes(ceilDiv(c.Rows, fcMR)*ceilDiv(c.Lanes, fcPlaneLanes), c, fcPlane)
}

// fcPlane computes plane p of c.
func fcPlane(c FC, p int) {
	chunks := ceilDiv(c.Lanes, fcPlaneLanes)
	r0, l0 := p/chunks*fcMR, p%chunks*fcPlaneLanes
	rows, lanes := min(fcMR, c.Rows-r0), min(fcPlaneLanes, c.Lanes-l0)
	var tile [fcMR * fcPlaneLanes]float64 // row r's sums at r·fcPlaneLanes
	for s0 := 0; s0 < c.Steps; s0 += fcKC {
		steps, a := min(fcKC, c.Steps-s0), c.A[r0*c.ARow+s0*c.AStep:]
		for l := 0; l < lanes; l += fcNR {
			b := c.B[s0*c.BStep+(l0+l)*c.BLane:]
			if n := min(fcNR, lanes-l); n < fcNR || c.BLane != 1 {
				fcMicroGo(steps, a, c.ARow, c.AStep, b, c.BStep, c.BLane, rows, n, tile[l:])
			} else {
				fcMicro(steps, a, c.ARow, c.AStep, rows, b, c.BStep, tile[l:])
			}
		}
	}
	for r := 0; r < rows; r++ {
		sums, out := tile[r*fcPlaneLanes:][:lanes], c.Out[(r0+r)*c.OutRow+l0*c.OutLane:]
		if c.OutLane == 1 {
			out = out[:lanes]
			for l, v := range sums {
				out[l] = float32(v)
			}
			continue
		}
		for l, v := range sums {
			out[l*c.OutLane] = float32(v)
		}
	}
}

// fcMicro, the micro-kernel, is fcMicroGo for a block of rows ≤ fcMR rows and
// fcNR lanes contiguous in b (bl = 1).  Its assembly body adds to all fcMR
// rows of acc, a partial block's repeating its last row.

// fcMicroGo is the portable body of the contraction, and the definition of
// the micro-kernel contract: for r < rows ≤ fcMR and l < lanes ≤ fcNR,
//
//	acc[r·fcPlaneLanes + l] += Σ_{s<steps} float64(a[r·ra + s·sa]) · float64(b[s·sb + l·bl])
//
// one float64 add a step, s-ascending.  It walks the block's sums eight at a
// time, the last group repeating its last sum, so eight independent
// accumulators stay in registers whatever the block's shape.
func fcMicroGo(steps int, a []float32, ra, sa int, b []float32, sb, bl, rows, lanes int, acc []float64) {
	sums := rows * lanes
	for e0 := 0; e0 < sums; e0 += 8 {
		var ao, bo, at [8]int
		for i := range ao {
			e := min(e0+i, sums-1)
			ao[i], bo[i], at[i] = e/lanes*ra, e%lanes*bl, e/lanes*fcPlaneLanes+e%lanes
		}
		s0, s1, s2, s3 := acc[at[0]], acc[at[1]], acc[at[2]], acc[at[3]]
		s4, s5, s6, s7 := acc[at[4]], acc[at[5]], acc[at[6]], acc[at[7]]
		for s, as, bs := 0, 0, 0; s < steps; s, as, bs = s+1, as+sa, bs+sb {
			s0 += float64(a[as+ao[0]]) * float64(b[bs+bo[0]])
			s1 += float64(a[as+ao[1]]) * float64(b[bs+bo[1]])
			s2 += float64(a[as+ao[2]]) * float64(b[bs+bo[2]])
			s3 += float64(a[as+ao[3]]) * float64(b[bs+bo[3]])
			s4 += float64(a[as+ao[4]]) * float64(b[bs+bo[4]])
			s5 += float64(a[as+ao[5]]) * float64(b[bs+bo[5]])
			s6 += float64(a[as+ao[6]]) * float64(b[bs+bo[6]])
			s7 += float64(a[as+ao[7]]) * float64(b[bs+bo[7]])
		}
		for i, v := range [...]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			acc[at[i]] = v
		}
	}
}
