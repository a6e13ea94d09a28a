// Package gpusim models the GPU hardware characteristics that determine the
// memory efficiency phenomena studied in the paper.
//
// The paper's experiments run CUDA kernels on an NVIDIA GTX Titan Black
// (Kepler) and a GTX Titan X (Maxwell).  Go has no mature CUDA path, so this
// package substitutes the silicon with an analytic performance model built
// from the same mechanisms the paper credits for its results:
//
//   - memory coalescing: the addresses issued by the 32 threads of a warp are
//     mapped onto aligned memory transactions; scattered or strided addresses
//     fetch more bytes than they use (Coalesce, WarpAccess);
//   - occupancy: registers per thread, shared memory per block and block size
//     bound the number of warps resident on an SM (Occupancy), which in turn
//     bounds how much DRAM latency the SM can hide (latency hiding factor in
//     EstimateTime);
//   - roofline timing: a kernel is limited by whichever of compute throughput
//     and DRAM bandwidth it saturates first, plus a fixed launch overhead per
//     kernel launch.
//
// Every constant in a Device comes from vendor documentation or the paper
// itself; there is no per-experiment fitting.
package gpusim

// Device describes one GPU.  All throughput values are peak/effective values
// as published; the timing model derates them with kernel-specific
// efficiency factors.
type Device struct {
	Name string

	// Compute.
	SMCount       int     // number of streaming multiprocessors
	PeakGFLOPS    float64 // single-precision peak, GFLOP/s
	CoreClockMHz  float64 // core clock, MHz
	WarpSize      int     // threads per warp (32 on all modelled devices)
	MaxWarpsPerSM int     // resident warp limit per SM

	// Memory system.
	MemBandwidthGBs   float64 // effective DRAM bandwidth, GB/s
	MemLatencyNS      float64 // average DRAM access latency, ns
	GlobalMemBytes    int64   // device memory capacity
	L2CacheBytes      int64   // L2 cache capacity
	CacheLineBytes    int     // L1/L2 cache line size
	TransactionBytes  int     // minimum DRAM transaction granularity
	SharedMemPerSM    int     // shared memory per SM, bytes
	SharedMemPerBlock int     // maximum shared memory per thread block, bytes
	SharedBankBytes   int     // shared memory bank width (4 or 8 bytes)

	// Execution limits.
	RegistersPerSM     int // 32-bit registers per SM
	MaxRegsPerThread   int
	MaxThreadsPerSM    int
	MaxThreadsPerBlock int
	MaxBlocksPerSM     int

	// Kernel launch overhead, microseconds.  Covers driver submission and
	// the tail effect of draining the previous kernel; it is what makes the
	// five-kernel softmax implementation pay for its inter-kernel round
	// trips even before the extra DRAM traffic is counted.
	LaunchOverheadUS float64
}

// TitanBlack returns the model of the NVIDIA GTX Titan Black (Kepler GK110B)
// used for the paper's main experiments: 5121 GFLOPS single precision,
// 235 GB/s effective bandwidth, 6 GB of device memory (Section III.B).
func TitanBlack() *Device {
	return &Device{
		Name:               "GTX Titan Black (Kepler GK110B)",
		SMCount:            15,
		PeakGFLOPS:         5121,
		CoreClockMHz:       889,
		WarpSize:           32,
		MaxWarpsPerSM:      64,
		MemBandwidthGBs:    235,
		MemLatencyNS:       368,
		GlobalMemBytes:     6 << 30,
		L2CacheBytes:       1536 << 10,
		CacheLineBytes:     128,
		TransactionBytes:   32,
		SharedMemPerSM:     48 << 10,
		SharedMemPerBlock:  48 << 10,
		SharedBankBytes:    8, // Kepler supports the 8-byte bank mode used by the vectorised transpose
		RegistersPerSM:     64 << 10,
		MaxRegsPerThread:   255,
		MaxThreadsPerSM:    2048,
		MaxThreadsPerBlock: 1024,
		MaxBlocksPerSM:     16,
		LaunchOverheadUS:   5,
	}
}

// TitanX returns the model of the NVIDIA GTX Titan X (Maxwell GM200) used for
// the paper's cross-device validation (Section VI.C): higher bandwidth,
// larger memory, different layout-selection thresholds.
func TitanX() *Device {
	return &Device{
		Name:               "GTX Titan X (Maxwell GM200)",
		SMCount:            24,
		PeakGFLOPS:         6144,
		CoreClockMHz:       1000,
		WarpSize:           32,
		MaxWarpsPerSM:      64,
		MemBandwidthGBs:    336,
		MemLatencyNS:       350,
		GlobalMemBytes:     12 << 30,
		L2CacheBytes:       3 << 20,
		CacheLineBytes:     128,
		TransactionBytes:   32,
		SharedMemPerSM:     96 << 10,
		SharedMemPerBlock:  48 << 10,
		SharedBankBytes:    4,
		RegistersPerSM:     64 << 10,
		MaxRegsPerThread:   255,
		MaxThreadsPerSM:    2048,
		MaxThreadsPerBlock: 1024,
		MaxBlocksPerSM:     32,
		LaunchOverheadUS:   5,
	}
}

// PeakBytesPerSec returns the effective DRAM bandwidth in bytes per second.
func (d *Device) PeakBytesPerSec() float64 { return d.MemBandwidthGBs * 1e9 }

// PeakFLOPsPerSec returns the peak arithmetic throughput in FLOP per second.
func (d *Device) PeakFLOPsPerSec() float64 { return d.PeakGFLOPS * 1e9 }

// FitsInMemory reports whether a working set of the given size fits in device
// memory.  The FFT convolution path uses it to reproduce the out-of-memory
// failures the paper reports for CV5 and CV6.
func (d *Device) FitsInMemory(bytes int64) bool { return bytes <= d.GlobalMemBytes }
