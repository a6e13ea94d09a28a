package gpusim

import "sort"

// Interconnect models the host link (PCIe) that cross-device transfers share.
// A single transfer moves at the full link bandwidth; when several transfers
// overlap they divide it — the fair-share behaviour of a PCIe switch under
// congestion — which is what makes scattering a batch to K replicas more
// expensive per byte than feeding one device.  The zero GBs value is invalid;
// callers pick the modeled link speed (runtime.InterconnectGBs for the
// practical PCIe 3.0 x16 rate).
type Interconnect struct {
	// GBs is the link bandwidth in GB/s available to a lone transfer.
	GBs float64
}

// TransferUS prices one uncontended transfer: bytes at the full link
// bandwidth.  Launch/driver overheads are charged by the device receiving the
// transfer, not by the link.
func (ic Interconnect) TransferUS(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return float64(bytes) / (ic.GBs * 1e9) * 1e6
}

// ScatterUS prices len(sizes) transfers that start simultaneously on the
// shared link — the batch scatter of a data-parallel replica group — and
// returns each transfer's completion time in microseconds, index-aligned with
// sizes.  The link is shared fairly among the transfers still in flight:
// while K remain, each progresses at bandwidth/K, so the smallest finishes
// first and the survivors speed up.  The model is work-conserving — the link
// runs at full bandwidth until the last byte — so the final completion time
// equals the lone-transfer price of the summed bytes.
func (ic Interconnect) ScatterUS(sizes []int64) []float64 {
	done := make([]float64, len(sizes))
	// Order by remaining size; walk the finish events accumulating elapsed
	// time at the fair share of each phase.
	order := make([]int, 0, len(sizes))
	for i, b := range sizes {
		if b <= 0 {
			continue // nothing to move: completes immediately
		}
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return sizes[order[a]] < sizes[order[b]] })
	var elapsedUS, movedBytes float64
	for k, idx := range order {
		active := len(order) - k
		phaseBytes := float64(sizes[idx]) - movedBytes // left of the next finisher
		elapsedUS += phaseBytes * float64(active) / (ic.GBs * 1e9) * 1e6
		movedBytes = float64(sizes[idx])
		done[idx] = elapsedUS
	}
	return done
}
