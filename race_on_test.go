//go:build race

package memcnn_test

// raceDetector reports that the race detector is compiled in: it slows the Go
// kernels 20–50× and the assembly GEMM not at all, so timings taken under it
// say nothing about the kernels (TestSelectionRegret skips).
const raceDetector = true
