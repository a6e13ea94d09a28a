package bench

import (
	"fmt"
	"strings"

	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
)

// PickDevice resolves the -device flag of the cmd/ tools to a GPU model.  An
// unknown name is an error: a typo must not be priced as the default device.
func PickDevice(name string) (*gpusim.Device, error) {
	switch strings.ToLower(name) {
	case "titanblack", "titan-black", "black":
		return gpusim.TitanBlack(), nil
	case "titanx", "titan-x", "x":
		return gpusim.TitanX(), nil
	default:
		return nil, fmt.Errorf("unknown device %q (want titanblack or titanx)", name)
	}
}

// PickThresholds resolves the -thresholds flag of the cmd/ tools: the
// paper's published layout thresholds for dev, or the ones calibrated on its
// model.
func PickThresholds(kind string, dev *gpusim.Device) (layout.Thresholds, error) {
	switch strings.ToLower(kind) {
	case "paper":
		if strings.Contains(dev.Name, "Titan X") {
			return layout.TitanXThresholds(), nil
		}
		return layout.TitanBlackThresholds(), nil
	case "calibrated", "auto":
		return layout.Calibrate(dev), nil
	default:
		return layout.Thresholds{}, fmt.Errorf("unknown thresholds %q (want paper or calibrated)", kind)
	}
}
