package kernels

import (
	"fmt"
	"math"

	"memcnn/internal/par"
)

// Softmax (classifier) kernels, Section V.B: the fused row-wise softmax the
// runtime runs, and the five-step algorithm of the libraries' unfused
// baseline.  Their GPU cost models are gpusim's SoftmaxCost variants.

// SoftmaxInto computes the row-wise softmax of src into the caller-provided
// dst (both N×Classes row-major) without allocating.  dst may alias src: each
// row is read fully for its maximum before anything is written.  It is the
// functional reference of every modelled softmax implementation.
//
//memcnn:noalloc
func SoftmaxInto(dst, src []float32, cfg SoftmaxConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(src) != cfg.Elems() {
		return fmt.Errorf("kernels: softmax input has %d elements, want %d", len(src), cfg.Elems())
	}
	if len(dst) != cfg.Elems() {
		return fmt.Errorf("kernels: softmax output has %d elements, want %d", len(dst), cfg.Elems())
	}
	par.Planes(cfg.N, softmaxJob{dst: dst, src: src, classes: cfg.Classes}, softmaxPlane)
	return nil
}

// softmaxJob is one SoftmaxInto call, one plane per row.
type softmaxJob struct {
	dst, src []float32
	classes  int
}

func softmaxPlane(j softmaxJob, n int) {
	softmaxRow(j.src[n*j.classes:(n+1)*j.classes], j.dst[n*j.classes:(n+1)*j.classes])
}

// softmaxRow computes one row; dst may alias row (the maximum is taken before
// any write, and dst[i] is written only after row[i] is read).
func softmaxRow(row, dst []float32) {
	maxV := row[0]
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
	}
	var sum float64
	for i, v := range row {
		e := math.Exp(float64(v - maxV))
		dst[i] = float32(e)
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] = float32(float64(dst[i]) * inv)
	}
}

// SoftmaxFiveStep computes the same result through the explicit five-step
// algorithm of Section II.A, materialising every intermediate matrix the way
// the five-kernel baseline does.  Tests assert it agrees with Softmax; the
// intermediates let the cost model's traffic accounting be cross-checked.
func SoftmaxFiveStep(in []float32, cfg SoftmaxConfig) (out []float32, intermediates int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	if len(in) != cfg.Elems() {
		return nil, 0, fmt.Errorf("kernels: softmax input has %d elements, want %d", len(in), cfg.Elems())
	}
	n, c := cfg.N, cfg.Classes
	// Step 1: per-image maximum.
	maxv := make([]float32, n)
	for i := 0; i < n; i++ {
		maxv[i] = in[i*c]
		for j := 0; j < c; j++ {
			if v := in[i*c+j]; v > maxv[i] {
				maxv[i] = v
			}
		}
	}
	// Step 2: shift.
	mid1 := make([]float32, n*c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			mid1[i*c+j] = in[i*c+j] - maxv[i]
		}
	}
	// Step 3: exponential.
	mid2 := make([]float32, n*c)
	for i := range mid1 {
		mid2[i] = float32(math.Exp(float64(mid1[i])))
	}
	// Step 4: per-image sum.
	sumv := make([]float32, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < c; j++ {
			s += float64(mid2[i*c+j])
		}
		sumv[i] = float32(s)
	}
	// Step 5: normalise.
	out = make([]float32, n*c)
	for i := 0; i < n; i++ {
		for j := 0; j < c; j++ {
			out[i*c+j] = mid2[i*c+j] / sumv[i]
		}
	}
	return out, 2*n*c + 2*n, nil
}
