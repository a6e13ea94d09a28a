// Softmax fusion study: the Fig. 13 scenario.
//
// The classifier (softmax) layer is memory bound.  The baseline libraries
// implement its five algorithm steps as five separate kernels whose
// intermediates round-trip through DRAM and parallelise only the batch loop.
// This example
//
//   - verifies functionally that the fused computation produces the same
//     probabilities as the five-step computation,
//   - prices the four modelled implementations across the paper's twelve
//     batch/category configurations, and
//   - splits the gain into the kernel-fusion and the inner-loop
//     parallelisation contributions (the Section VI.B ablation).
//
// Run with:  go run ./examples/softmaxfusion
package main

import (
	"fmt"
	"log"
	"math"

	"memcnn/internal/bench"
	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/tensor"
)

func main() {
	device := gpusim.TitanBlack()

	// --- Functional equivalence ------------------------------------------
	cfg := kernels.SoftmaxConfig{N: 32, Classes: 1000}
	logits := tensor.Random(tensor.Shape{N: cfg.N, C: cfg.Classes, H: 1, W: 1}, tensor.NCHW, 123)
	fused := make([]float32, cfg.Elems())
	if err := kernels.SoftmaxInto(fused, logits.Data, cfg); err != nil {
		log.Fatal(err)
	}
	fiveStep, intermediates, err := kernels.SoftmaxFiveStep(logits.Data, cfg)
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i := range fused {
		if d := math.Abs(float64(fused[i] - fiveStep[i])); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("fused vs five-step softmax on %s: max |diff| = %.2e (%d intermediate elements avoided by fusion)\n\n",
		cfg, maxDiff, intermediates)

	// --- Implementation comparison across configurations ------------------
	impls := []gpusim.SoftmaxImpl{
		gpusim.SoftmaxThreadPerImage,
		gpusim.SoftmaxBlockPerImage,
		gpusim.SoftmaxFused,
		gpusim.SoftmaxFusedParallel,
	}
	fmt.Printf("%-12s", "batch/cls")
	for _, impl := range impls {
		fmt.Printf("  %22s", impl)
	}
	fmt.Println("  (time us / useful GB/s)")
	for _, sc := range []kernels.SoftmaxConfig{
		{N: 128, Classes: 10}, {N: 128, Classes: 1000}, {N: 128, Classes: 10000}, {N: 256, Classes: 10000},
	} {
		fmt.Printf("%-12s", sc.String()[8:])
		for _, impl := range impls {
			kt := gpusim.EstimateTime(device, gpusim.SoftmaxCost(device, sc, impl))
			fmt.Printf("  %10.1f / %8.1f", kt.TotalUS, kt.AchievedBandwidthGBs)
		}
		fmt.Println()
	}

	// --- Fig. 13 and the ablation ------------------------------------------
	_, fig13 := bench.Figure13(device)
	fmt.Printf("\n%s\n", fig13)
	_, ablation := bench.SoftmaxAblation(device)
	fmt.Println(ablation)
}
