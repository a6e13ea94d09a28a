package gpusim

import "fmt"

// KernelTime is the estimated execution time of a kernel, with its breakdown
// and the derived throughput numbers the paper reports (achieved bandwidth in
// GB/s, achieved GFLOPS).
type KernelTime struct {
	Stats KernelStats

	ComputeUS float64 // time if purely compute bound
	MemoryUS  float64 // time if purely memory bound
	LaunchUS  float64 // kernel launch overhead
	TotalUS   float64

	Occupancy Occupancy
	// AchievedBandwidthGBs is useful bytes divided by total time, matching
	// how the paper reports pooling/softmax bandwidth (Figs. 6, 11, 12, 13).
	AchievedBandwidthGBs float64
	// EffectiveBandwidthGBs is moved DRAM bytes divided by memory time: the
	// raw DRAM throughput the kernel sustains.
	EffectiveBandwidthGBs float64
	AchievedGFLOPS        float64
	Limiter               string // "compute", "memory" or "launch"
}

// EstimateTime applies the roofline + latency-hiding model to one kernel.
//
//	computeTime = FLOPs / (peak * ComputeEfficiency)
//	memoryTime  = DRAMBytes / achievableBandwidth
//	total       = launches*launchOverhead + max(computeTime, memoryTime)
//
// achievableBandwidth is the device bandwidth capped by Little's law using
// the kernel's occupancy: too few resident warps cannot keep enough bytes in
// flight to saturate DRAM, which is exactly the paper's diagnosis of the
// baseline softmax kernels (Section V.B).
func EstimateTime(d *Device, s KernelStats) KernelTime {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	occ := ComputeOccupancy(d, s.Block, s.GridBlocks)

	// Compute roof.
	eff := s.ComputeEfficiency
	if eff <= 0 {
		eff = 1
	}
	var computeUS float64
	if s.FLOPs > 0 {
		// A nearly empty device also throttles arithmetic throughput: only
		// the resident warps issue instructions.
		computeScale := occ.Fraction * 4 // a quarter-full device already reaches peak issue
		if computeScale > 1 {
			computeScale = 1
		}
		if computeScale <= 0 {
			computeScale = 1.0 / float64(d.MaxWarpsPerSM*d.SMCount)
		}
		computeUS = s.FLOPs / (d.PeakFLOPsPerSec() * eff * computeScale) * 1e6
	}

	// Memory roof with a Little's-law cap.
	bytesInFlight := s.BytesInFlightPerThread
	if bytesInFlight <= 0 {
		bytesInFlight = DefaultBytesInFlightPerThread
	}
	achievableBW := d.PeakBytesPerSec()
	if occ.ActiveWarps > 0 {
		concurrent := float64(occ.ActiveWarps*d.WarpSize) * bytesInFlight
		latencyCap := concurrent / (d.MemLatencyNS * 1e-9)
		if latencyCap < achievableBW {
			achievableBW = latencyCap
		}
	}
	var memoryUS float64
	if s.TotalDRAMBytes() > 0 {
		memoryUS = s.TotalDRAMBytes() / achievableBW * 1e6
	}

	launchUS := float64(s.launches()) * d.LaunchOverheadUS

	body := computeUS
	limiter := "compute"
	if memoryUS > body {
		body, limiter = memoryUS, "memory"
	}
	if body == 0 || launchUS > body {
		limiter = "launch"
	}
	total := launchUS + body

	kt := KernelTime{
		Stats:     s,
		ComputeUS: computeUS,
		MemoryUS:  memoryUS,
		LaunchUS:  launchUS,
		TotalUS:   total,
		Occupancy: occ,
		Limiter:   limiter,
	}
	if total > 0 {
		kt.AchievedBandwidthGBs = s.TotalUsefulBytes() / (total * 1e-6) / 1e9
		kt.AchievedGFLOPS = s.FLOPs / (total * 1e-6) / 1e9
	}
	if memoryUS > 0 {
		kt.EffectiveBandwidthGBs = s.TotalDRAMBytes() / (memoryUS * 1e-6) / 1e9
	}
	return kt
}

// EstimateSequence estimates the total time, in microseconds, of kernels
// executed back to back, each paying its own launch overhead.
func EstimateSequence(d *Device, kernels []KernelStats) (total float64) {
	for _, k := range kernels {
		total += EstimateTime(d, k).TotalUS
	}
	return total
}

// String summarises the estimate.
func (kt KernelTime) String() string {
	return fmt.Sprintf("%s: %.1fus (%s-bound, %.1f GB/s useful, %.0f GFLOPS, occ %.0f%%)",
		kt.Stats.Name, kt.TotalUS, kt.Limiter, kt.AchievedBandwidthGBs, kt.AchievedGFLOPS,
		kt.Occupancy.Fraction*100)
}
