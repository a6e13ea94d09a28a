package main

import (
	"math"
	"time"

	"memcnn/internal/tensor"
)

// rng is a splitmix64 generator: every input, label and arrival time of a
// workload is drawn from one of these seeded from -seed, so the same seed
// gives the same inputs on every Go version.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a value in [0,1).
func (r *rng) float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a value in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stream derives the generator of one independent input stream (images,
// labels, arrivals, …) from the workload seed.
func stream(seed, id uint64) *rng {
	r := rng{state: seed*0x9e3779b97f4a7c15 + id}
	return &rng{state: r.next()}
}

// randomBatches returns count seeded NCHW tensors of one shape, with values in
// [-scale, scale).
//
// The scale matters to the output check.  The library's synthetic weights lie
// in [-1, 1), so inputs of that size give LeNet logits in the thousands and
// Cifar10 logits in the ten thousands; the softmax of those is one-hot, and
// comparing one-hot rows checks little more than the arg max, except where the
// two largest logits happen to lie within float32 rounding of each other, and
// there a GEMM or FFT convolution and the naive direct one legitimately
// disagree (about one image in six hundred did).  These networks have no bias
// and no LRN, so scaling the input scales the logits: inference workloads pass
// a power of two that brings the logits to about ±2, where every class has a
// probability worth comparing and rounding stays inside the tolerance.
func randomBatches(shape tensor.Shape, count int, r *rng, scale float32) []*tensor.Tensor {
	out := make([]*tensor.Tensor, count)
	for i := range out {
		out[i] = tensor.Random(shape, tensor.NCHW, r.next())
		for j := range out[i].Data {
			out[i].Data[j] *= scale
		}
	}
	return out
}

// randomLabels returns count label vectors of batch entries in [0,classes).
func randomLabels(batch, classes, count int, r *rng) [][]int {
	out := make([][]int, count)
	for i := range out {
		out[i] = make([]int, batch)
		for j := range out[i] {
			out[i][j] = r.intn(classes)
		}
	}
	return out
}

// poissonSchedule returns the due times, as offsets from the start of the
// phase, of a Poisson arrival process at the given rate over the given span:
// exponential gaps with mean 1/rate.  Independent users arrive like this
// whatever the server is doing, which is what makes the phase an open loop.
func poissonSchedule(rate float64, span time.Duration, r *rng) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return due
		}
		due = append(due, d)
	}
}
