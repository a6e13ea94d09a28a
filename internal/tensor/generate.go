package tensor

// Deterministic tensor generators.  The paper's experiments run on MNIST,
// CIFAR-10 and ImageNet images; the memory behaviour studied here depends on
// tensor *shape* and layout rather than on pixel values, so the library uses
// reproducible synthetic data.
//
// A splitmix64 generator is used instead of math/rand so that the same seed
// always produces the same tensor regardless of Go version, which keeps the
// cross-implementation correctness tests byte-for-byte stable.

// rng is a splitmix64 pseudo-random number generator.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float32 in [0,1).
func (r *rng) float32() float32 {
	return float32(r.next()>>40) / float32(1<<24)
}

// Random returns a tensor whose logical contents are a deterministic function
// of the seed and the logical coordinate only: the same seed produces the
// same logical tensor in every layout.  Values lie in [-1, 1).
func Random(shape Shape, layout Layout, seed uint64) *Tensor {
	t := New(shape, layout)
	r := newRNG(seed)
	// Generate in canonical NCHW logical order so that the values attached
	// to each logical coordinate are layout independent.
	for n := 0; n < shape.N; n++ {
		for c := 0; c < shape.C; c++ {
			for h := 0; h < shape.H; h++ {
				for w := 0; w < shape.W; w++ {
					v := r.float32()*2 - 1
					t.Data[shape.Offset(layout, n, c, h, w)] = v
				}
			}
		}
	}
	return t
}

// Sequential returns a tensor whose element at logical coordinate (n,c,h,w)
// equals its canonical NCHW linear index.  Useful in tests: after a layout
// conversion each logical coordinate must still carry its own index.
func Sequential(shape Shape, layout Layout) *Tensor {
	t := New(shape, layout)
	i := 0
	for n := 0; n < shape.N; n++ {
		for c := 0; c < shape.C; c++ {
			for h := 0; h < shape.H; h++ {
				for w := 0; w < shape.W; w++ {
					t.Data[shape.Offset(layout, n, c, h, w)] = float32(i)
					i++
				}
			}
		}
	}
	return t
}

// Filters returns a deterministic 4-D filter bank with shape
// (Co, Ci, Fh, Fw) stored as a Tensor with N=Co, C=Ci, H=Fh, W=Fw.
// Filter banks always use the NCHW layout ordering (Co outermost) in this
// library, matching both cuda-convnet and Caffe weight storage.
func Filters(co, ci, fh, fw int, seed uint64) *Tensor {
	return Random(Shape{N: co, C: ci, H: fh, W: fw}, NCHW, seed)
}
