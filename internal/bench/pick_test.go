package bench

import (
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
)

func TestPickDeviceAndThresholds(t *testing.T) {
	for _, tc := range []struct {
		device, kind string
		dev          *gpusim.Device
		th           layout.Thresholds
	}{
		{"titanblack", "paper", gpusim.TitanBlack(), layout.TitanBlackThresholds()},
		{"TitanX", "paper", gpusim.TitanX(), layout.TitanXThresholds()},
		{"titanx", "Calibrated", gpusim.TitanX(), layout.Calibrate(gpusim.TitanX())},
	} {
		dev, err := PickDevice(tc.device)
		if err != nil {
			t.Fatal(err)
		}
		th, err := PickThresholds(tc.kind, dev)
		if err != nil {
			t.Fatal(err)
		}
		if dev.Name != tc.dev.Name || th != tc.th {
			t.Errorf("%s/%s: got %s with %v, want %s with %v", tc.device, tc.kind, dev.Name, th, tc.dev.Name, tc.th)
		}
	}
	if _, err := PickDevice("titanz"); err == nil {
		t.Error("an unknown device was accepted")
	}
	if _, err := PickThresholds("", gpusim.TitanBlack()); err == nil {
		t.Error("empty thresholds were accepted")
	}
}
