package network_test

import (
	"math"
	"testing"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// smallNet builds a 4-image toy network: conv -> pool -> fc -> softmax.
func smallNet(t *testing.T) *network.Network {
	t.Helper()
	conv, err := layers.NewConv("conv1", kernels.ConvConfig{N: 4, C: 1, H: 8, W: 8, K: 4, FH: 3, FW: 3, PadH: 1, PadW: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := layers.NewPool("pool1", kernels.PoolConfig{N: 4, C: 4, H: 8, W: 8, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := layers.NewFullyConnected("fc1", 4, 4*4*4, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := layers.NewSoftmax("prob", kernels.SoftmaxConfig{N: 4, Classes: 6})
	if err != nil {
		t.Fatal(err)
	}
	net, err := network.New("toy", 4, conv, pool, fc, sm)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewValidation(t *testing.T) {
	conv, _ := layers.NewConv("conv1", kernels.ConvConfig{N: 4, C: 1, H: 8, W: 8, K: 4, FH: 3, FW: 3}, 1)
	if _, err := network.New("", 4, conv); err == nil {
		t.Error("missing name must be rejected")
	}
	if _, err := network.New("n", 0, conv); err == nil {
		t.Error("non-positive batch must be rejected")
	}
	if _, err := network.New("n", 4); err == nil {
		t.Error("empty layer list must be rejected")
	}
	if _, err := network.New("n", 8, conv); err == nil {
		t.Error("batch mismatch must be rejected")
	}
	// Mismatched chaining: conv output is 4x4x6x6, pool expects something else.
	badPool, _ := layers.NewPool("pool1", kernels.PoolConfig{N: 4, C: 4, H: 8, W: 8, Window: 2, Stride: 2})
	if _, err := network.New("n", 4, conv, badPool); err == nil {
		t.Error("element-count mismatch between layers must be rejected")
	}
}

func TestNetworkShapes(t *testing.T) {
	net := smallNet(t)
	if net.InputShape() != (tensor.Shape{N: 4, C: 1, H: 8, W: 8}) {
		t.Errorf("InputShape = %v", net.InputShape())
	}
	if net.OutputShape() != (tensor.Shape{N: 4, C: 6, H: 1, W: 1}) {
		t.Errorf("OutputShape = %v", net.OutputShape())
	}
}

func TestNetworkForwardProducesProbabilities(t *testing.T) {
	net := smallNet(t)
	in := tensor.Random(net.InputShape(), tensor.CHWN, 5)
	out, err := net.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		var sum float64
		for c := 0; c < 6; c++ {
			sum += float64(out.At(n, c, 0, 0))
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("image %d probabilities sum to %v", n, sum)
		}
	}
	wrong := tensor.New(tensor.Shape{N: 4, C: 2, H: 8, W: 8}, tensor.CHWN)
	if _, err := net.Forward(wrong); err == nil {
		t.Error("wrong input shape must be rejected")
	}
}

func TestNetworkForwardLayoutInvariance(t *testing.T) {
	net := smallNet(t)
	inCHWN := tensor.Random(net.InputShape(), tensor.CHWN, 9)
	inNCHW := tensor.Convert(inCHWN, tensor.NCHW)
	a, err := net.Forward(inCHWN)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Forward(inNCHW)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(a, b, 1e-5) {
		t.Error("the input layout must not change the network's output values")
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	d := gpusim.TitanBlack()
	net := smallNet(t)
	plan := &network.ExecutionPlan{PlannerName: "p", Network: net, Device: d}
	for _, l := range net.Layers {
		plan.Layers = append(plan.Layers, network.PlannedLayer{Layer: l, Layout: tensor.CHWN})
	}
	good := *plan
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	truncated := *plan
	truncated.Layers = truncated.Layers[:1]
	if err := truncated.Validate(); err == nil {
		t.Error("a truncated plan must fail validation")
	}
	wrongLayout := *plan
	wrongLayout.Layers = append([]network.PlannedLayer(nil), plan.Layers...)
	wrongLayout.Layers[0].Layout = tensor.Layout(9)
	if err := wrongLayout.Validate(); err == nil {
		t.Error("an invalid layout must fail validation")
	}
	inputTransform := *plan
	inputTransform.Layers = append([]network.PlannedLayer(nil), plan.Layers...)
	stats, method, err := gpusim.BestTransform(d, net.InputShape(), tensor.NCHW, tensor.CHWN)
	if err != nil {
		t.Fatal(err)
	}
	inputTransform.Layers[0].Transform, inputTransform.Layers[0].TransformMethod = &stats, method
	if err := inputTransform.Validate(); err == nil {
		t.Error("a transform before the first layer must fail validation: the input is written in its layout")
	}
	var empty network.ExecutionPlan
	if err := empty.Validate(); err == nil {
		t.Error("an empty plan must fail validation")
	}
}
