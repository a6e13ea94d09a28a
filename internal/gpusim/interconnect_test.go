package gpusim

import (
	"math"
	"testing"
)

const testLinkGBs = 12.0

// TestInterconnectTransferScalesWithBytes checks the uncontended price is
// linear in the transfer size.
func TestInterconnectTransferScalesWithBytes(t *testing.T) {
	ic := Interconnect{GBs: testLinkGBs}
	one := ic.TransferUS(1 << 20)
	if one <= 0 {
		t.Fatalf("1 MiB transfer priced at %v us", one)
	}
	if got := ic.TransferUS(2 << 20); !approx(got, 2*one, 1e-9) {
		t.Errorf("2 MiB priced %v us, want 2x 1 MiB = %v us", got, 2*one)
	}
	if got := ic.TransferUS(0); got != 0 {
		t.Errorf("empty transfer priced %v us, want 0", got)
	}
}

// TestInterconnectContention checks the ROADMAP contention property: when two
// transfers overlap, each sees half the link, so both cost ~2x the lone
// price.
func TestInterconnectContention(t *testing.T) {
	ic := Interconnect{GBs: testLinkGBs}
	const bytes = 4 << 20
	lone := ic.TransferUS(bytes)

	done := ic.ScatterUS([]int64{bytes, bytes})
	for i, d := range done {
		if !approx(d, 2*lone, 1e-9) {
			t.Errorf("scatter transfer %d completed at %v us, want %v us", i, d, 2*lone)
		}
	}
}

// TestInterconnectScatterWaterFilling checks the overlap model on unequal
// sizes: smaller transfers finish earlier, the link is work-conserving (the
// last completion equals the lone price of the summed bytes), and zero-byte
// entries complete immediately.
func TestInterconnectScatterWaterFilling(t *testing.T) {
	ic := Interconnect{GBs: testLinkGBs}
	sizes := []int64{1 << 20, 4 << 20, 0, 2 << 20}
	done := ic.ScatterUS(sizes)

	if done[2] != 0 {
		t.Errorf("zero-byte transfer completed at %v us, want 0", done[2])
	}
	if !(done[0] < done[3] && done[3] < done[1]) {
		t.Errorf("completions not ordered by size: %v for sizes %v", done, sizes)
	}
	var total int64
	for _, b := range sizes {
		total += b
	}
	if last := done[1]; !approx(last, ic.TransferUS(total), 1e-9) {
		t.Errorf("last completion %v us, want work-conserving %v us", last, ic.TransferUS(total))
	}
	// The smallest transfer ran 3-way contended for its whole life.
	if want := 3 * ic.TransferUS(sizes[0]); !approx(done[0], want, 1e-9) {
		t.Errorf("smallest transfer completed at %v us, want 3-way contended %v us", done[0], want)
	}
}

func approx(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}
