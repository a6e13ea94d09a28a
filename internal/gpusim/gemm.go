package gpusim

import "fmt"

// GemmCostConfig describes the GEMM whose GPU cost is being modelled.
type GemmCostConfig struct {
	M, N, K int
}

// FLOPs returns 2*M*N*K.
func (g GemmCostConfig) FLOPs() float64 { return 2 * float64(g.M) * float64(g.N) * float64(g.K) }

// Saturation constants of the GEMM efficiency model.  They encode the paper's
// observation that the GEMM formulation only pays off once the merged matrix
// dimensions are large enough (Section IV.A, Fig. 4b): how quickly each
// dimension has to grow before the tiled GPU GEMM reaches its asymptotic
// efficiency.  The M and N dimensions feed thread-level parallelism and tile
// reuse, the K dimension amortises the tile loads over more FMAs.  The K
// constant is the largest because a short reduction leaves most of each
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
func GemmCost(d *Device, g GemmCostConfig) KernelStats {
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
	return KernelStats{
		Name:       fmt.Sprintf("sgemm %dx%dx%d", g.M, g.N, g.K),
		GridBlocks: tiles,
		Block: BlockResources{
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
