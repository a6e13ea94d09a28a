package gpusim

import (
	"math"
	"testing"
)

// bigGrid gives a kernel enough blocks to fill the device.
const bigGrid = 1 << 16

func computeBoundStats() KernelStats {
	return KernelStats{
		Name:              "compute-bound",
		GridBlocks:        bigGrid,
		Block:             BlockResources{ThreadsPerBlock: 256, RegsPerThread: 32},
		FLOPs:             1e9,
		ComputeEfficiency: 0.8,
		DRAMReadBytes:     1e6,
		DRAMWriteBytes:    1e6,
		UsefulReadBytes:   1e6,
		UsefulWriteBytes:  1e6,
	}
}

func memoryBoundStats() KernelStats {
	return KernelStats{
		Name:             "memory-bound",
		GridBlocks:       bigGrid,
		Block:            BlockResources{ThreadsPerBlock: 256, RegsPerThread: 32},
		FLOPs:            1e6,
		DRAMReadBytes:    5e8,
		DRAMWriteBytes:   5e8,
		UsefulReadBytes:  5e8,
		UsefulWriteBytes: 5e8,
	}
}

func TestEstimateTimeComputeBound(t *testing.T) {
	d := TitanBlack()
	kt := EstimateTime(d, computeBoundStats())
	if kt.Limiter != "compute" {
		t.Errorf("limiter = %q, want compute", kt.Limiter)
	}
	wantUS := 1e9 / (5121e9 * 0.8) * 1e6
	if math.Abs(kt.ComputeUS-wantUS)/wantUS > 1e-9 {
		t.Errorf("ComputeUS = %v, want %v", kt.ComputeUS, wantUS)
	}
	if kt.TotalUS < kt.ComputeUS {
		t.Error("total must include the compute roof")
	}
}

func TestEstimateTimeMemoryBound(t *testing.T) {
	d := TitanBlack()
	kt := EstimateTime(d, memoryBoundStats())
	if kt.Limiter != "memory" {
		t.Errorf("limiter = %q, want memory", kt.Limiter)
	}
	// 1 GB at 235 GB/s is about 4255 us.
	if kt.MemoryUS < 4000 || kt.MemoryUS > 4600 {
		t.Errorf("MemoryUS = %v, want ~4255", kt.MemoryUS)
	}
	// Achieved useful bandwidth should be close to (but below) peak.
	if kt.AchievedBandwidthGBs > d.MemBandwidthGBs {
		t.Errorf("achieved bandwidth %v exceeds peak %v", kt.AchievedBandwidthGBs, d.MemBandwidthGBs)
	}
	if kt.AchievedBandwidthGBs < 0.9*d.MemBandwidthGBs {
		t.Errorf("achieved bandwidth %v too far below peak for a full-occupancy streaming kernel", kt.AchievedBandwidthGBs)
	}
}

func TestLowOccupancyCapsBandwidth(t *testing.T) {
	d := TitanBlack()
	// Same traffic, but only one block of 128 threads (the baseline softmax
	// parallelisation).  Little's law must cap the achieved bandwidth far
	// below peak.
	s := memoryBoundStats()
	s.GridBlocks = 1
	s.Block = BlockResources{ThreadsPerBlock: 128}
	full := EstimateTime(d, memoryBoundStats())
	starved := EstimateTime(d, s)
	if starved.TotalUS <= full.TotalUS {
		t.Error("a latency-starved kernel must be slower than a full-occupancy one")
	}
	if starved.AchievedBandwidthGBs > 40 {
		t.Errorf("starved kernel bandwidth = %v GB/s, expected well below peak", starved.AchievedBandwidthGBs)
	}
}

func TestLaunchOverheadDominatesTinyKernels(t *testing.T) {
	d := TitanBlack()
	s := KernelStats{
		Name:       "tiny",
		GridBlocks: 1,
		Block:      BlockResources{ThreadsPerBlock: 32},
		FLOPs:      100,
		Launches:   5,
	}
	kt := EstimateTime(d, s)
	if kt.Limiter != "launch" {
		t.Errorf("limiter = %q, want launch", kt.Limiter)
	}
	if kt.LaunchUS != 25 {
		t.Errorf("LaunchUS = %v, want 25 (5 launches x 5us)", kt.LaunchUS)
	}
}

func TestMoreLaunchesCostMore(t *testing.T) {
	d := TitanBlack()
	one := memoryBoundStats()
	five := memoryBoundStats()
	five.Launches = 5
	if EstimateTime(d, five).TotalUS <= EstimateTime(d, one).TotalUS {
		t.Error("five launches must cost more than one")
	}
}

func TestEstimateTimePanicsOnInvalidStats(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid stats")
		}
	}()
	EstimateTime(TitanBlack(), KernelStats{Name: "bad", FLOPs: -1})
}

func TestEstimateSequence(t *testing.T) {
	d := TitanBlack()
	kernels := []KernelStats{computeBoundStats(), memoryBoundStats()}
	total := EstimateSequence(d, kernels)
	want := EstimateTime(d, kernels[0]).TotalUS + EstimateTime(d, kernels[1]).TotalUS
	if math.Abs(total-want) > 1e-9 {
		t.Errorf("sequence total %v != sum of parts %v", total, want)
	}
}

// Add merges another kernel's stats into a combined sequential cost (as if
// the two kernels run back to back).  Launch counts add; geometry keeps the
// larger grid so occupancy reflects the bigger kernel.
func (s KernelStats) Add(o KernelStats) KernelStats {
	out := s
	if o.GridBlocks > out.GridBlocks {
		out.GridBlocks = o.GridBlocks
		out.Block = o.Block
	}
	out.Launches = s.launches() + o.launches()
	out.FLOPs += o.FLOPs
	out.DRAMReadBytes += o.DRAMReadBytes
	out.DRAMWriteBytes += o.DRAMWriteBytes
	out.UsefulReadBytes += o.UsefulReadBytes
	out.UsefulWriteBytes += o.UsefulWriteBytes
	// Combined efficiency: FLOP-weighted harmonic-style blend; if either has
	// no FLOPs keep the other's.
	switch {
	case s.FLOPs == 0:
		out.ComputeEfficiency = o.ComputeEfficiency
	case o.FLOPs == 0:
		out.ComputeEfficiency = s.ComputeEfficiency
	default:
		se, oe := s.ComputeEfficiency, o.ComputeEfficiency
		if se <= 0 {
			se = 1
		}
		if oe <= 0 {
			oe = 1
		}
		out.ComputeEfficiency = (s.FLOPs + o.FLOPs) / (s.FLOPs/se + o.FLOPs/oe)
	}
	return out
}

func TestStatsAddMergesWork(t *testing.T) {
	a, b := computeBoundStats(), memoryBoundStats()
	sum := a.Add(b)
	if sum.FLOPs != a.FLOPs+b.FLOPs {
		t.Error("FLOPs must add")
	}
	if sum.TotalDRAMBytes() != a.TotalDRAMBytes()+b.TotalDRAMBytes() {
		t.Error("DRAM bytes must add")
	}
	if sum.Launches != 2 {
		t.Errorf("Launches = %d, want 2", sum.Launches)
	}
	if sum.ComputeEfficiency <= 0 || sum.ComputeEfficiency > 1 {
		t.Errorf("combined efficiency %v out of range", sum.ComputeEfficiency)
	}
}

func TestStatsAddZeroFLOPsKeepsOtherEfficiency(t *testing.T) {
	a := KernelStats{Name: "memcpy", DRAMReadBytes: 10}
	b := computeBoundStats()
	if got := a.Add(b).ComputeEfficiency; got != b.ComputeEfficiency {
		t.Errorf("efficiency = %v, want %v", got, b.ComputeEfficiency)
	}
	if got := b.Add(a).ComputeEfficiency; got != b.ComputeEfficiency {
		t.Errorf("efficiency = %v, want %v", got, b.ComputeEfficiency)
	}
}

func TestStatsValidate(t *testing.T) {
	bad := []KernelStats{
		{Name: "neg flops", FLOPs: -1},
		{Name: "neg bytes", DRAMReadBytes: -1},
		{Name: "bad eff", ComputeEfficiency: 2},
		{Name: "neg block", Block: BlockResources{ThreadsPerBlock: -1}},
		{Name: "neg useful", UsefulReadBytes: -5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected validation error", s.Name)
		}
	}
	if err := computeBoundStats().Validate(); err != nil {
		t.Errorf("valid stats rejected: %v", err)
	}
}

func TestKernelTimeString(t *testing.T) {
	kt := EstimateTime(TitanBlack(), memoryBoundStats())
	if kt.String() == "" {
		t.Error("String must not be empty")
	}
}

func TestTitanXIsFasterOnSameKernel(t *testing.T) {
	s := memoryBoundStats()
	tb := EstimateTime(TitanBlack(), s)
	tx := EstimateTime(TitanX(), s)
	if tx.TotalUS >= tb.TotalUS {
		t.Error("the higher-bandwidth Titan X must run a memory-bound kernel faster")
	}
}
