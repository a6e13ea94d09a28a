// Layout advisor: apply the paper's layout heuristic to a custom network.
//
// The example defines a CNN that is not part of the paper's benchmark set,
// calibrates the layout-selection thresholds for both modelled GPUs, and
// prints per-layer advice: which layout each layer should use, what the other
// layout would cost against it, and where layout transformations pay for
// themselves.
//
// Run with:  go run ./examples/layoutadvisor
package main

import (
	"fmt"
	"log"

	"memcnn/internal/bench"
	"memcnn/internal/core"
	"memcnn/internal/frameworks"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/layout"
	"memcnn/internal/network"
	"memcnn/internal/tensor"
)

// buildCustomNet assembles a small VGG-flavoured network on 64x64 inputs with
// batch 96 — a shape mix that is deliberately absent from the paper's Table 1.
func buildCustomNet() (*network.Network, error) {
	const batch = 96
	var ls []layers.Layer
	shape := tensor.Shape{N: batch, C: 3, H: 64, W: 64}
	seed := uint64(7)

	addConv := func(name string, k, f, stride, pad int) error {
		cfg := kernels.ConvConfig{N: batch, C: shape.C, H: shape.H, W: shape.W, K: k, FH: f, FW: f,
			StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
		l, err := layers.NewConv(name, cfg, seed)
		if err != nil {
			return err
		}
		seed++
		ls = append(ls, l)
		shape = l.OutputShape()
		return nil
	}
	addPool := func(name string, window, stride int) error {
		cfg := kernels.PoolConfig{N: batch, C: shape.C, H: shape.H, W: shape.W, Window: window, Stride: stride}
		l, err := layers.NewPool(name, cfg)
		if err != nil {
			return err
		}
		ls = append(ls, l)
		shape = l.OutputShape()
		return nil
	}
	steps := []func() error{
		func() error { return addConv("conv1", 32, 5, 1, 2) },
		func() error { return addPool("pool1", 3, 2) },
		func() error { return addConv("conv2", 96, 3, 1, 1) },
		func() error { return addConv("conv3", 96, 3, 1, 1) },
		func() error { return addPool("pool2", 3, 2) },
		func() error { return addConv("conv4", 192, 3, 1, 1) },
		func() error { return addPool("pool3", 2, 2) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	fcIn := shape.C * shape.H * shape.W
	fc, err := layers.NewFullyConnected("fc1", batch, fcIn, 256, seed)
	if err != nil {
		return nil, err
	}
	ls = append(ls, fc)
	sm, err := layers.NewSoftmax("prob", kernels.SoftmaxConfig{N: batch, Classes: 256})
	if err != nil {
		return nil, err
	}
	ls = append(ls, sm)
	return network.New("CustomNet", batch, ls...)
}

func main() {
	net, err := buildCustomNet()
	if err != nil {
		log.Fatal(err)
	}

	for _, device := range []*gpusim.Device{gpusim.TitanBlack(), gpusim.TitanX()} {
		thresholds := layout.Calibrate(device)
		fmt.Printf("== %s ==\n", device.Name)
		fmt.Printf("calibrated layout thresholds: %v (published for this class of GPU: %v / %v)\n\n",
			thresholds, layout.TitanBlackThresholds(), layout.TitanXThresholds())

		// Per-layer advice for the convolutional layers: the other layout's
		// time over the preferred one's, below 1 where the heuristic picks the
		// slower layout, marked where it disagrees with the model's winner.
		fmt.Printf("%-8s %-46s %-10s %s\n", "layer", "shape", "preferred", "other layout / preferred")
		for _, l := range net.Layers {
			conv, ok := l.(*layers.Conv)
			if !ok {
				continue
			}
			preferred := layout.PreferredConvLayout(conv.Cfg, thresholds)
			winner, chwnUS, nchwUS := layout.MeasuredConvWinner(device, conv.Cfg)
			benefit := nchwUS / chwnUS
			if preferred == tensor.NCHW {
				benefit = chwnUS / nchwUS
			}
			mark := ""
			if preferred != winner {
				mark = fmt.Sprintf("  <- the model prices %v faster", winner)
			}
			fmt.Printf("%-8s %-46s %-10v %.2fx (CHWN %.0f us, NCHW %.0f us)%s\n",
				conv.Name(), conv.Cfg.String(), preferred, benefit, chwnUS, nchwUS, mark)
		}

		// Whole-network plans: the optimiser's against each layout alone with
		// its conventional kernels.
		priced, err := bench.PricePolicies(device, net, []core.Policy{
			frameworks.Optimized(thresholds),
			{Name: "all-CHWN", Layouts: map[tensor.Layout]gpusim.CostOptions{tensor.CHWN: {}}},
			{Name: "all-NCHW", Layouts: map[tensor.Layout]gpusim.CostOptions{tensor.NCHW: {}}},
		})
		if err != nil {
			log.Fatal(err)
		}
		opt := priced[0].Estimate
		fmt.Printf("\nwhole network: mixed layouts %.1f ms  |  all-CHWN %.1f ms  |  all-NCHW %.1f ms  (%d transforms, %.1f%% overhead)\n\n",
			opt.TotalUS/1000, priced[1].Estimate.TotalUS/1000, priced[2].Estimate.TotalUS/1000,
			priced[0].Plan.TransformCount(), 100*opt.TransformUS/opt.TotalUS)
	}
}
