//go:build !amd64 || purego

package kernels

// gemmMicro is the micro-kernel the packed core calls: without the assembly
// body, the portable one.
func gemmMicro(kc int, a, b, c []float32, ldc int, accumulate bool) {
	gemmMicroGo(kc, a, b, c, ldc, accumulate)
}
