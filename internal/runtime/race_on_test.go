//go:build race

package runtime_test

// raceDetector reports that the race detector is compiled in: it slows the Go
// kernels 20–50× and the assembly GEMM not at all, so the direct
// convolution's naive forward of an ImageNet-scale network takes minutes
// under it.
const raceDetector = true
