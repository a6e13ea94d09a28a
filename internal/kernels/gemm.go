package kernels

import (
	"fmt"
	"runtime"

	"memcnn/internal/gpusim"
)

// Blocked single-precision matrix multiplication.  It is the substrate for
// the Caffe/cuDNN convolution path (im2col + GEMM, Section II.B) and for the
// fully-connected layers, and its cost model encodes the paper's observation
// that the GEMM formulation only pays off once the merged matrix dimensions
// are large enough (Section IV.A, Fig. 4b).

// Blocking parameters of the CPU GEMM.  The reduction dimension is processed
// in gemmKBlock slabs so the touched B panel stays cache resident, and inside
// a slab the micro-kernel holds a gemmMR×gemmNR tile of C in registers, which
// amortises every A and B load over four FMAs.
const (
	gemmKBlock = 256
	gemmMR     = 4
	gemmNR     = 4
)

// gemmCheck validates the operand dimensions shared by Gemm and GemmInto.
func gemmCheck(a, b []float32, m, n, k int) error {
	if m <= 0 || n <= 0 || k <= 0 {
		return fmt.Errorf("kernels: gemm dims must be positive (m=%d n=%d k=%d)", m, n, k)
	}
	if len(a) != m*k {
		return fmt.Errorf("kernels: gemm A has %d elements, want %d", len(a), m*k)
	}
	if len(b) != k*n {
		return fmt.Errorf("kernels: gemm B has %d elements, want %d", len(b), k*n)
	}
	return nil
}

// Gemm computes C = A·B for row-major dense matrices: A is m×k, B is k×n and
// the result C is m×n.
func Gemm(a []float32, b []float32, m, n, k int) ([]float32, error) {
	if err := gemmCheck(a, b, m, n, k); err != nil {
		return nil, err
	}
	c := make([]float32, m*n)
	if err := GemmInto(a, b, c, m, n, k); err != nil {
		return nil, err
	}
	return c, nil
}

// GemmInto computes C = A·B into the caller-provided slice c (length m×n,
// zeroed on entry by this function), performing no allocation itself.  The
// work is parallelised over gemmMR-aligned row panels of C; the accumulation
// order of every output element — ascending k, rounded to float32 at
// gemmKBlock boundaries — is fixed regardless of the panel split, so results
// are bit-identical across GOMAXPROCS settings and repeated runs.
//
//memcnn:noalloc
func GemmInto(a, b, c []float32, m, n, k int) error {
	if err := gemmCheck(a, b, m, n, k); err != nil {
		return err
	}
	if len(c) != m*n {
		return fmt.Errorf("kernels: gemm C has %d elements, want %d", len(c), m*n)
	}
	for i := range c {
		c[i] = 0
	}
	panels := min(runtime.GOMAXPROCS(0), (m+gemmMR-1)/gemmMR)
	ParallelPlanes(panels, gemmJob{a: a, b: b, c: c, m: m, n: n, k: k, panels: panels}, gemmPanelOf)
	return nil
}

// gemmJob is one GemmInto call split into row panels of whole gemmMR quads.
type gemmJob struct {
	a, b, c         []float32
	m, n, k, panels int
}

// gemmPanelOf computes the p-th of the job's row panels; there are no more
// panels than quads, so none is empty.
func gemmPanelOf(j gemmJob, p int) {
	quads := (j.m + gemmMR - 1) / gemmMR
	lo := (p * quads / j.panels) * gemmMR
	hi := min(((p+1)*quads/j.panels)*gemmMR, j.m)
	gemmPanel(j.a, j.b, j.c, lo, hi, j.n, j.k)
}

// gemmPanel computes rows [lo,hi) of C, k-blocked so the B slab touched by a
// reduction pass stays in cache across the panel's row quads.
func gemmPanel(a, b, c []float32, lo, hi, n, k int) {
	for kb := 0; kb < k; kb += gemmKBlock {
		kEnd := kb + gemmKBlock
		if kEnd > k {
			kEnd = k
		}
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			gemmMicro4(a, b, c, i, n, k, kb, kEnd)
		}
		for ; i < hi; i++ {
			gemmMicro1(a, b, c, i, n, k, kb, kEnd)
		}
	}
}

// gemmMicro4 accumulates the partial products of reduction block [kb,kEnd)
// into the four C rows starting at i, walking the columns in gemmNR-wide
// tiles so sixteen accumulators live in registers through the inner loop.
func gemmMicro4(a, b, c []float32, i, n, k, kb, kEnd int) {
	a0 := a[(i+0)*k : (i+1)*k]
	a1 := a[(i+1)*k : (i+2)*k]
	a2 := a[(i+2)*k : (i+3)*k]
	a3 := a[(i+3)*k : (i+4)*k]
	c0 := c[(i+0)*n : (i+1)*n]
	c1 := c[(i+1)*n : (i+2)*n]
	c2 := c[(i+2)*n : (i+3)*n]
	c3 := c[(i+3)*n : (i+4)*n]
	j := 0
	for ; j+gemmNR <= n; j += gemmNR {
		s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
		s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
		s20, s21, s22, s23 := c2[j], c2[j+1], c2[j+2], c2[j+3]
		s30, s31, s32, s33 := c3[j], c3[j+1], c3[j+2], c3[j+3]
		for kk := kb; kk < kEnd; kk++ {
			off := kk*n + j
			b0, b1, b2, b3 := b[off], b[off+1], b[off+2], b[off+3]
			av := a0[kk]
			s00 += av * b0
			s01 += av * b1
			s02 += av * b2
			s03 += av * b3
			av = a1[kk]
			s10 += av * b0
			s11 += av * b1
			s12 += av * b2
			s13 += av * b3
			av = a2[kk]
			s20 += av * b0
			s21 += av * b1
			s22 += av * b2
			s23 += av * b3
			av = a3[kk]
			s30 += av * b0
			s31 += av * b1
			s32 += av * b2
			s33 += av * b3
		}
		c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
		c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
		c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
		c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
	}
	for ; j < n; j++ {
		s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
		for kk := kb; kk < kEnd; kk++ {
			bv := b[kk*n+j]
			s0 += a0[kk] * bv
			s1 += a1[kk] * bv
			s2 += a2[kk] * bv
			s3 += a3[kk] * bv
		}
		c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
	}
}

// gemmMicro1 is the single-row remainder of gemmMicro4 with the identical
// per-element accumulation order.
func gemmMicro1(a, b, c []float32, i, n, k, kb, kEnd int) {
	aRow := a[i*k : (i+1)*k]
	cRow := c[i*n : (i+1)*n]
	j := 0
	for ; j+gemmNR <= n; j += gemmNR {
		s0, s1, s2, s3 := cRow[j], cRow[j+1], cRow[j+2], cRow[j+3]
		for kk := kb; kk < kEnd; kk++ {
			off := kk*n + j
			av := aRow[kk]
			s0 += av * b[off]
			s1 += av * b[off+1]
			s2 += av * b[off+2]
			s3 += av * b[off+3]
		}
		cRow[j], cRow[j+1], cRow[j+2], cRow[j+3] = s0, s1, s2, s3
	}
	for ; j < n; j++ {
		s := cRow[j]
		for kk := kb; kk < kEnd; kk++ {
			s += aRow[kk] * b[kk*n+j]
		}
		cRow[j] = s
	}
}

// GemmCostConfig describes the GEMM whose GPU cost is being modelled.
type GemmCostConfig struct {
	M, N, K int
}

// FLOPs returns 2*M*N*K.
func (g GemmCostConfig) FLOPs() float64 { return 2 * float64(g.M) * float64(g.N) * float64(g.K) }

// Saturation constants of the GEMM efficiency model.  They encode how quickly
// each matrix dimension has to grow before the tiled GPU GEMM reaches its
// asymptotic efficiency: the M and N dimensions feed thread-level parallelism
// and tile reuse, the K dimension amortises the tile loads over more FMAs.
// The K constant is the largest because a short reduction leaves most of each
// tile-load unamortised — the "matrix expansion leads to better data reuse"
// effect of Section IV.A only materialises once C·FH·FW is large.
const (
	gemmPeakFraction = 0.38 // asymptotic fraction of peak FLOPs for SGEMM-as-convolution
	gemmSatM         = 48.0
	gemmSatN         = 1500.0
	gemmSatK         = 338.0
	gemmMinEff       = 0.12 // floor: even degenerate GEMMs retain some throughput
	gemmTileEdge     = 64.0 // square thread-block tile edge used for traffic estimation
)

// GemmEfficiency returns the modelled fraction of device peak throughput an
// SGEMM of the given dimensions achieves when compute bound.
func GemmEfficiency(g GemmCostConfig) float64 {
	if g.M <= 0 || g.N <= 0 || g.K <= 0 {
		return gemmMinEff
	}
	effM := float64(g.M) / (float64(g.M) + gemmSatM)
	effN := float64(g.N) / (float64(g.N) + gemmSatN)
	effK := float64(g.K) / (float64(g.K) + gemmSatK)
	eff := gemmPeakFraction * effM * effN * effK
	if eff < gemmMinEff*gemmPeakFraction {
		eff = gemmMinEff * gemmPeakFraction
	}
	return eff
}

// GemmCost returns the kernel statistics of a tiled GPU SGEMM C(M×N) = A(M×K)·B(K×N).
func GemmCost(d *gpusim.Device, g GemmCostConfig) gpusim.KernelStats {
	aBytes := float64(g.M) * float64(g.K) * 4
	bBytes := float64(g.K) * float64(g.N) * 4
	cBytes := float64(g.M) * float64(g.N) * 4

	// With square tiles of edge T, the A panel is re-read N/T times and the B
	// panel M/T times.
	rereadA := float64(g.N) / gemmTileEdge
	if rereadA < 1 {
		rereadA = 1
	}
	rereadB := float64(g.M) / gemmTileEdge
	if rereadB < 1 {
		rereadB = 1
	}
	read := aBytes*rereadA + bBytes*rereadB
	// L2 captures part of the re-read traffic when the panels are small.
	if aBytes+bBytes < float64(d.L2CacheBytes) {
		read = aBytes + bBytes
	}

	tiles := ceilDiv(g.M, int(gemmTileEdge)) * ceilDiv(g.N, int(gemmTileEdge))
	return gpusim.KernelStats{
		Name:       fmt.Sprintf("sgemm %dx%dx%d", g.M, g.N, g.K),
		GridBlocks: tiles,
		Block: gpusim.BlockResources{
			ThreadsPerBlock: 256,
			RegsPerThread:   64,
			// Double-buffered A and B panels (64x8 each) staged through
			// shared memory; the bulk of the tile lives in registers.
			SharedMemPerBlock: 8 << 10,
		},
		Launches:          1,
		FLOPs:             g.FLOPs(),
		ComputeEfficiency: GemmEfficiency(g),
		DRAMReadBytes:     read,
		DRAMWriteBytes:    cBytes,
		UsefulReadBytes:   aBytes + bBytes,
		UsefulWriteBytes:  cBytes,
	}
}

func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
