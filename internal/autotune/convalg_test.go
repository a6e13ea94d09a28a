package autotune

import (
	"fmt"
	"testing"

	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestLayerPricesEveryKindInBothLayouts checks which candidates the price
// list offers the selection: every layer kind of the workload networks has a
// positive price in NCHW and CHWN and none in a layout past tensor.Layouts,
// and an invalid convolution has none.
func TestLayerPricesEveryKindInBothLayouts(t *testing.T) {
	net, err := workloads.AlexNetWithBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]bool{}
	for _, l := range net.Layers {
		kind := fmt.Sprintf("%T", l)
		kinds[kind] = true
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			if s, ok := HostPrices().Layer(l, lay); !ok || !(s > 0) {
				t.Errorf("%s (%s) in %v: price %g, %t", l.Name(), kind, lay, s, ok)
			}
		}
		if _, ok := HostPrices().Layer(l, tensor.Layout(9)); ok {
			t.Errorf("%s (%s) is priced in %v", l.Name(), kind, tensor.Layout(9))
		}
	}
	if len(kinds) != 6 {
		t.Errorf("AlexNet has layer kinds %v, want all six", kinds)
	}
	if _, ok := HostPrices().Conv(kernels.ConvConfig{}, tensor.NCHW); ok {
		t.Error("an invalid convolution is priced")
	}
}

// TestStepPricesTheGradients checks the training step's candidates: a step
// costs more than the layer's forward wherever both are priced, every layer
// kind of the workload networks has a step price in NCHW, and in CHWN all
// but the fully-connected layers (their filter gradient walks strides there)
// and the softmax (the loss gradient reads NCHW) do.
func TestStepPricesTheGradients(t *testing.T) {
	net, err := workloads.AlexNetWithBatch(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range net.Layers {
		for _, lay := range []tensor.Layout{tensor.NCHW, tensor.CHWN} {
			fwd, _ := HostPrices().Layer(l, lay)
			step, ok := HostPrices().Step(l, lay)
			switch l.(type) {
			case *layers.FullyConnected, *layers.Softmax:
				if ok != (lay == tensor.NCHW) {
					t.Errorf("%s in %v: a step price is %t", l.Name(), lay, ok)
				}
			default:
				if !ok {
					t.Errorf("%s in %v has no step price", l.Name(), lay)
				}
			}
			if _, sm := l.(*layers.Softmax); ok && !sm && !(step > fwd) {
				t.Errorf("%s in %v: a step costs %g s, its forward %g s", l.Name(), lay, step, fwd)
			}
		}
	}
}
