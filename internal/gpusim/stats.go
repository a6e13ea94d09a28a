package gpusim

import "fmt"

// KernelStats is the analytic description of one GPU kernel invocation (or a
// short sequence of identical invocations): its launch geometry, resource
// demand, arithmetic work and off-chip traffic.  The kernel models of this
// package produce KernelStats; EstimateTime turns them into time.
type KernelStats struct {
	Name string

	// Launch geometry and per-block resources.
	GridBlocks int
	Block      BlockResources
	Launches   int // number of kernel launches represented (>=1)

	// Arithmetic work.
	FLOPs float64
	// ComputeEfficiency is the fraction of peak arithmetic throughput the
	// kernel's structure can reach when it is not memory bound: it captures
	// structural effects such as short inner loops, low register-level reuse
	// or underfilled vector units.  Range (0, 1].
	ComputeEfficiency float64

	// Off-chip traffic actually moved, after coalescing over-fetch and after
	// whatever reuse the kernel achieves in registers/shared memory/L2.
	DRAMReadBytes  float64
	DRAMWriteBytes float64

	// The bytes the computation logically consumes and produces; used to
	// report achieved (useful) bandwidth the way the paper does.
	UsefulReadBytes  float64
	UsefulWriteBytes float64

	// BytesInFlightPerThread bounds memory-level parallelism per thread for
	// the Little's-law bandwidth cap.  Zero selects the default (16 bytes,
	// i.e. four outstanding float loads per thread).
	BytesInFlightPerThread float64
}

// DefaultBytesInFlightPerThread is the memory-level parallelism assumed per
// thread when a kernel model does not specify one.
const DefaultBytesInFlightPerThread = 16.0

// TotalDRAMBytes returns read plus write traffic.
func (s KernelStats) TotalDRAMBytes() float64 { return s.DRAMReadBytes + s.DRAMWriteBytes }

// TotalUsefulBytes returns the logically required traffic.
func (s KernelStats) TotalUsefulBytes() float64 { return s.UsefulReadBytes + s.UsefulWriteBytes }

// launches returns the launch count, defaulting to one.
func (s KernelStats) launches() int {
	if s.Launches <= 0 {
		return 1
	}
	return s.Launches
}

// Validate reports structural problems in the stats (negative work, missing
// block size, efficiency out of range).
func (s KernelStats) Validate() error {
	switch {
	case s.FLOPs < 0 || s.DRAMReadBytes < 0 || s.DRAMWriteBytes < 0:
		return fmt.Errorf("gpusim: %s: negative work", s.Name)
	case s.ComputeEfficiency < 0 || s.ComputeEfficiency > 1:
		return fmt.Errorf("gpusim: %s: compute efficiency %v out of range", s.Name, s.ComputeEfficiency)
	case s.Block.ThreadsPerBlock < 0:
		return fmt.Errorf("gpusim: %s: negative block size", s.Name)
	case s.UsefulReadBytes < 0 || s.UsefulWriteBytes < 0:
		return fmt.Errorf("gpusim: %s: negative useful bytes", s.Name)
	}
	return nil
}
