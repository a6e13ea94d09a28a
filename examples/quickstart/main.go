// Quickstart: the smallest end-to-end use of the library.
//
// It does three things:
//  1. runs a small CNN functionally (forward pass on synthetic data),
//  2. asks the GPU model which data layout a convolutional layer prefers,
//  3. prices the layer in both layouts to show why the choice matters.
//
// Run with:  go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"memcnn/internal/gpusim"
	"memcnn/internal/layout"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

func main() {
	// --- 1. Functional forward pass on a tiny network -------------------
	net, err := workloads.TinyNet()
	if err != nil {
		log.Fatal(err)
	}
	input := tensor.Random(net.InputShape(), tensor.CHWN, 42)
	output, err := net.Forward(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TinyNet forward pass: %v -> %v\n", net.InputShape(), output.Shape)
	fmt.Print("class probabilities of image 0: ")
	for c := 0; c < output.Shape.C; c++ {
		fmt.Printf("%.3f ", output.At(0, c, 0, 0))
	}
	fmt.Println()

	// --- 2. Layout recommendation for a real layer ----------------------
	device := gpusim.TitanBlack()
	thresholds := layout.TitanBlackThresholds()
	cv1, err := workloads.FindConv("CV1") // LeNet's first convolution from Table 1
	if err != nil {
		log.Fatal(err)
	}
	recommended := layout.PreferredConvLayout(cv1.Cfg, thresholds)
	fmt.Printf("\n%s (%s)\n", cv1.Name, cv1.Cfg)
	fmt.Printf("heuristic with thresholds %v recommends: %v\n", thresholds, recommended)

	// --- 3. Why: price the layer in both layouts ------------------------
	chwn := gpusim.EstimateTime(device, gpusim.ConvDirectCHWNCost(device, cv1.Cfg))
	nchwTotal := gpusim.EstimateSequence(device, gpusim.ConvGemmNCHWCost(device, cv1.Cfg))
	fmt.Printf("CHWN (direct convolution):     %8.1f us  (%s-bound, %.0f GFLOPS)\n",
		chwn.TotalUS, chwn.Limiter, chwn.AchievedGFLOPS)
	fmt.Printf("NCHW (im2col + GEMM):          %8.1f us\n", nchwTotal)
	fmt.Printf("speedup of the preferred layout: %.2fx\n", nchwTotal/chwn.TotalUS)
}
