// Package fft implements the radix-2 complex fast Fourier transform used by
// the FFT-based convolution path (cuDNN-FFT / cuDNN-FFT-Tiling in the paper).
//
// Only the pieces the convolution kernel needs are provided: an in-place 2-D
// transform over split re/im planes, the spectrum product of a
// cross-correlation, and next-power-of-two helpers for the zero padding that
// gives the FFT approach its memory overhead (Section IV.A, "Data Layouts in
// FFT-based Implementations").
//
// No compiled program runs a transform: the package stays only for the
// benchmark module's fft.split2d_mpts_s metric and kernels.ConvFFTInto, which
// the compiler no longer runs, and goes with them (ROADMAP item 4); the GPU
// model (internal/gpusim) reads only NextPow2.
package fft

import "math/bits"

// NextPow2 returns the smallest power of two that is >= n (and at least 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }
