package fft

// Split-storage transforms, used by the FFT convolution kernel
// (kernels.ConvFFTInto).
//
// The arena memory planner hands kernels flat []float32 scratch, which cannot
// carry complex128 values, so spectra are stored as separate re/im float32
// planes living side by side in the caller's scratch.  Butterfly arithmetic
// still runs in float64 — only the values *between* passes round to float32,
// the storage precision a split-complex GPU implementation would use — and
// every pass walks its data in place (rows with stride 1, columns with stride
// cols), so a 2-D transform needs no column staging buffer and performs no
// heap allocation at all.

import (
	"fmt"
	"math"
	"math/bits"
)

// Forward2DSplit computes the in-place 2-D forward DFT of a rows×cols
// spectrum stored as split re/im planes (row-major, rows and cols powers of
// two).  It allocates nothing.
func Forward2DSplit(re, im []float32, rows, cols int) error {
	return transform2DSplit(re, im, rows, cols, false)
}

// Inverse2DSplit computes the in-place 2-D inverse DFT (including the 1/N
// scale per dimension) over split re/im planes.
func Inverse2DSplit(re, im []float32, rows, cols int) error {
	return transform2DSplit(re, im, rows, cols, true)
}

func transform2DSplit(re, im []float32, rows, cols int, inverse bool) error {
	if !IsPow2(rows) || !IsPow2(cols) {
		return fmt.Errorf("fft: split matrix %dx%d is not power-of-two sized", rows, cols)
	}
	if len(re) < rows*cols || len(im) < rows*cols {
		return fmt.Errorf("fft: split planes hold %d/%d elements, want %d", len(re), len(im), rows*cols)
	}
	for r := 0; r < rows; r++ {
		transformSplit(re, im, r*cols, cols, 1, inverse)
	}
	for c := 0; c < cols; c++ {
		transformSplit(re, im, c, rows, cols, inverse)
	}
	return nil
}

// transformSplit is the iterative radix-2 Cooley–Tukey FFT over one strided
// 1-D slice of a split-complex plane: element i lives at off+i*stride.  The
// length n must be a power of two (validated by the 2-D wrappers).
func transformSplit(re, im []float32, off, n, stride int, inverse bool) {
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			pi, pj := off+i*stride, off+j*stride
			re[pi], re[pj] = re[pj], re[pi]
			im[pi], im[pj] = im[pj], im[pi]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size / 2
		angle := sign * 2 * math.Pi / float64(size)
		stepR, stepI := math.Cos(angle), math.Sin(angle)
		for start := 0; start < n; start += size {
			wR, wI := 1.0, 0.0
			for k := 0; k < half; k++ {
				pa := off + (start+k)*stride
				pb := pa + half*stride
				aR, aI := float64(re[pa]), float64(im[pa])
				bR := float64(re[pb])*wR - float64(im[pb])*wI
				bI := float64(re[pb])*wI + float64(im[pb])*wR
				re[pa], im[pa] = float32(aR+bR), float32(aI+bI)
				re[pb], im[pb] = float32(aR-bR), float32(aI-bI)
				wR, wI = wR*stepR-wI*stepI, wR*stepI+wI*stepR
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := 0; i < n; i++ {
			p := off + i*stride
			re[p] = float32(float64(re[p]) * inv)
			im[p] = float32(float64(im[p]) * inv)
		}
	}
}

// SpectrumCorrelateSplit accumulates img·conj(filt) into acc over split re/im
// planes, with the products computed in float64 and the running sum stored in
// float32: correlation in the space domain is pointwise multiplication by the
// conjugated filter spectrum, and accumulating lets the kernel amortise the
// image transform across output channels as batched cuDNN-FFT does.  All six
// planes must have the accumulator's length; the caller guarantees it (every
// plane is one padded spectrum of the same transform size).  It allocates
// nothing.
func SpectrumCorrelateSplit(accRe, accIm, imgRe, imgIm, filtRe, filtIm []float32) {
	for i := range accRe {
		iR, iI := float64(imgRe[i]), float64(imgIm[i])
		fR, fI := float64(filtRe[i]), float64(filtIm[i])
		// (iR + iI·j)·(fR - fI·j): correlation conjugates the filter spectrum.
		accRe[i] = float32(float64(accRe[i]) + iR*fR + iI*fI)
		accIm[i] = float32(float64(accIm[i]) + iI*fR - iR*fI)
	}
}
