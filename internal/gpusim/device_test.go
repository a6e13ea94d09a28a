package gpusim

import (
	"fmt"
	"testing"
)

// Validate reports whether the device description is internally consistent:
// the presets must pass it, and each broken field must fail it.
func (d *Device) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("gpusim: device has no name")
	case d.SMCount <= 0:
		return fmt.Errorf("gpusim: %s: SMCount must be positive", d.Name)
	case d.PeakGFLOPS <= 0:
		return fmt.Errorf("gpusim: %s: PeakGFLOPS must be positive", d.Name)
	case d.MemBandwidthGBs <= 0:
		return fmt.Errorf("gpusim: %s: MemBandwidthGBs must be positive", d.Name)
	case d.WarpSize <= 0:
		return fmt.Errorf("gpusim: %s: WarpSize must be positive", d.Name)
	case d.TransactionBytes <= 0 || d.CacheLineBytes < d.TransactionBytes:
		return fmt.Errorf("gpusim: %s: inconsistent transaction/cache line sizes", d.Name)
	case d.MaxThreadsPerBlock <= 0 || d.MaxThreadsPerSM < d.MaxThreadsPerBlock:
		return fmt.Errorf("gpusim: %s: inconsistent thread limits", d.Name)
	case d.GlobalMemBytes <= 0:
		return fmt.Errorf("gpusim: %s: GlobalMemBytes must be positive", d.Name)
	case d.MemLatencyNS <= 0:
		return fmt.Errorf("gpusim: %s: MemLatencyNS must be positive", d.Name)
	case d.RegistersPerSM <= 0 || d.SharedMemPerSM <= 0:
		return fmt.Errorf("gpusim: %s: SM resources must be positive", d.Name)
	}
	return nil
}

func TestPresetDevicesValidate(t *testing.T) {
	for _, d := range []*Device{TitanBlack(), TitanX()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestTitanBlackMatchesPaperNumbers(t *testing.T) {
	d := TitanBlack()
	if d.PeakGFLOPS != 5121 {
		t.Errorf("PeakGFLOPS = %v, want 5121 (Section III.B)", d.PeakGFLOPS)
	}
	if d.MemBandwidthGBs != 235 {
		t.Errorf("MemBandwidthGBs = %v, want 235 (Section III.B)", d.MemBandwidthGBs)
	}
	if d.GlobalMemBytes != 6<<30 {
		t.Errorf("GlobalMemBytes = %v, want 6 GiB", d.GlobalMemBytes)
	}
}

func TestTitanXIsFasterThanTitanBlack(t *testing.T) {
	tb, tx := TitanBlack(), TitanX()
	if tx.MemBandwidthGBs <= tb.MemBandwidthGBs {
		t.Error("Titan X should have more bandwidth than Titan Black")
	}
	if tx.PeakGFLOPS <= tb.PeakGFLOPS {
		t.Error("Titan X should have more FLOPS than Titan Black")
	}
	if tx.GlobalMemBytes <= tb.GlobalMemBytes {
		t.Error("Titan X should have more memory than Titan Black")
	}
}

func TestDeviceValidateRejectsBrokenDevices(t *testing.T) {
	base := TitanBlack()
	cases := []func(*Device){
		func(d *Device) { d.Name = "" },
		func(d *Device) { d.SMCount = 0 },
		func(d *Device) { d.PeakGFLOPS = 0 },
		func(d *Device) { d.MemBandwidthGBs = -1 },
		func(d *Device) { d.WarpSize = 0 },
		func(d *Device) { d.TransactionBytes = 0 },
		func(d *Device) { d.CacheLineBytes = 16 },
		func(d *Device) { d.MaxThreadsPerBlock = 0 },
		func(d *Device) { d.GlobalMemBytes = 0 },
		func(d *Device) { d.MemLatencyNS = 0 },
		func(d *Device) { d.RegistersPerSM = 0 },
	}
	for i, mutate := range cases {
		d := *base
		mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestFitsInMemory(t *testing.T) {
	d := TitanBlack()
	if !d.FitsInMemory(1 << 30) {
		t.Error("1 GiB should fit in 6 GiB")
	}
	if d.FitsInMemory(7 << 30) {
		t.Error("7 GiB should not fit in 6 GiB")
	}
}

func TestPeakConversions(t *testing.T) {
	d := TitanBlack()
	if d.PeakBytesPerSec() != 235e9 {
		t.Errorf("PeakBytesPerSec = %v", d.PeakBytesPerSec())
	}
	if d.PeakFLOPsPerSec() != 5121e9 {
		t.Errorf("PeakFLOPsPerSec = %v", d.PeakFLOPsPerSec())
	}
}
