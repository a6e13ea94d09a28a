package layers

import (
	"fmt"
	"math"
	"sync"

	"memcnn/internal/kernels"
	"memcnn/internal/par"
	"memcnn/internal/tensor"
)

// Softmax is the classifier layer; its input and output are logically
// N×Classes matrices carried as N×C×1×1 tensors.
type Softmax struct {
	LayerName string
	Cfg       kernels.SoftmaxConfig
}

// NewSoftmax builds a softmax layer.
func NewSoftmax(name string, cfg kernels.SoftmaxConfig) (*Softmax, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Softmax{LayerName: name, Cfg: cfg}, nil
}

// Name implements Layer.
func (s *Softmax) Name() string { return s.LayerName }

// InputShape implements Layer.
func (s *Softmax) InputShape() tensor.Shape {
	return tensor.Shape{N: s.Cfg.N, C: s.Cfg.Classes, H: 1, W: 1}
}

// OutputShape implements Layer.
func (s *Softmax) OutputShape() tensor.Shape { return s.InputShape() }

// WithBatch implements Layer: the classifier is stateless, so the clone
// only changes the batch dimension.
func (s *Softmax) WithBatch(batch int) (Layer, error) {
	cfg := s.Cfg
	cfg.N = batch
	return NewSoftmax(s.LayerName, cfg)
}

// WorkspaceElems implements Layer: staging room for the logit and probability
// matrices (each skipped when the corresponding tensor is already in the
// canonical NCHW linearisation).
func (s *Softmax) WorkspaceElems(tensor.Layout) int { return 2 * s.Cfg.Elems() }

// ForwardsInPlace implements Layer: each probability reads its whole row.
func (s *Softmax) ForwardsInPlace(tensor.Layout) bool { return false }

// ForwardInto implements Layer.
func (s *Softmax) ForwardInto(in, dst *tensor.Tensor, scratch []float32) error {
	if in.Shape != s.InputShape() {
		return fmt.Errorf("layers: %s: input shape %v, want %v", s.LayerName, in.Shape, s.InputShape())
	}
	if dst.Shape != s.OutputShape() {
		return fmt.Errorf("layers: %s: output shape %v, want %v", s.LayerName, dst.Shape, s.OutputShape())
	}
	if err := checkScratch(s, dst.Layout, scratch); err != nil {
		return err
	}
	elems := s.Cfg.Elems()
	// With N×C×1×1 shapes a backing slice in NCHW's order is the row-major
	// logit matrix itself; other orders stage through the scratch.
	logits := in.Data
	if !in.Shape.SameOrder(in.Layout, tensor.NCHW) {
		logits = scratch[:elems]
		src := stridesOf(in)
		for n := 0; n < s.Cfg.N; n++ {
			row := logits[n*s.Cfg.Classes : (n+1)*s.Cfg.Classes]
			for c := range row {
				row[c] = src.data[n*src.n+c*src.c]
			}
		}
	}
	inPlace := dst.Shape.SameOrder(dst.Layout, tensor.NCHW)
	probs := dst.Data
	if !inPlace {
		probs = scratch[elems : 2*elems]
	}
	if err := kernels.SoftmaxInto(probs, logits, s.Cfg); err != nil {
		return err
	}
	if !inPlace {
		out := stridesOf(dst)
		for n := 0; n < s.Cfg.N; n++ {
			for c, v := range probs[n*s.Cfg.Classes : (n+1)*s.Cfg.Classes] {
				out.data[n*out.n+c*out.c] = v
			}
		}
	}
	return nil
}

// FullyConnected is a dense layer computing Out = In × Wᵀ for a batch of
// flattened feature vectors.  Both libraries implement it as a matrix
// multiplication regardless of the activation layout.
type FullyConnected struct {
	LayerName string
	Batch     int
	InDim     int
	OutDim    int
	Seed      uint64

	// parent, when non-nil, is the layer this one was rebatched from: the
	// weight matrix is adopted from it on first use instead of regenerated,
	// so every rebatched clone shares one weight set.
	parent *FullyConnected

	weightsOnce sync.Once
	weights     []float32
}

// NewFullyConnected builds a dense layer.
func NewFullyConnected(name string, batch, inDim, outDim int, seed uint64) (*FullyConnected, error) {
	if batch <= 0 || inDim <= 0 || outDim <= 0 {
		return nil, fmt.Errorf("layers: fully-connected dims must be positive (batch=%d in=%d out=%d)", batch, inDim, outDim)
	}
	return &FullyConnected{LayerName: name, Batch: batch, InDim: inDim, OutDim: outDim, Seed: seed}, nil
}

// Name implements Layer.
func (f *FullyConnected) Name() string { return f.LayerName }

// InputShape implements Layer.
func (f *FullyConnected) InputShape() tensor.Shape {
	return tensor.Shape{N: f.Batch, C: f.InDim, H: 1, W: 1}
}

// OutputShape implements Layer.
func (f *FullyConnected) OutputShape() tensor.Shape {
	return tensor.Shape{N: f.Batch, C: f.OutDim, H: 1, W: 1}
}

// WithBatch implements Layer: the clone multiplies by the receiver's
// weight matrix (shared lazily through the parent link, not regenerated), so
// per-image results are bit-identical at any batch size.
func (f *FullyConnected) WithBatch(batch int) (Layer, error) {
	nf, err := NewFullyConnected(f.LayerName, batch, f.InDim, f.OutDim, f.Seed)
	if err != nil {
		return nil, err
	}
	nf.parent = f
	return nf, nil
}

// Weights returns (generating on first use) the deterministic weight matrix,
// row-major OutDim×InDim — adopted from the rebatch parent when there is
// one.  Generation is once-guarded so concurrent executor instances can
// share the layer.
func (f *FullyConnected) Weights() []float32 {
	f.weightsOnce.Do(func() {
		if f.parent != nil {
			f.weights = f.parent.Weights()
			return
		}
		t := tensor.Random(tensor.Shape{N: f.OutDim, C: f.InDim, H: 1, W: 1}, tensor.NCHW, f.Seed)
		f.weights = t.Data
	})
	return f.weights
}

// WorkspaceElems implements Layer: staging room for the feature matrix,
// features major and images fastest (skipped when the input already is that
// matrix, as a CHWN one is).
func (f *FullyConnected) WorkspaceElems(tensor.Layout) int { return f.Batch * f.InDim }

// ForwardsInPlace implements Layer: each output reads a whole feature row.
func (f *FullyConnected) ForwardsInPlace(tensor.Layout) bool { return false }

// ForwardInto implements Layer.
func (f *FullyConnected) ForwardInto(in, dst *tensor.Tensor, scratch []float32) error {
	want := f.InputShape()
	if in.Shape.Elems() != want.Elems() || in.Shape.N != f.Batch {
		return fmt.Errorf("layers: %s: input shape %v incompatible with %v", f.LayerName, in.Shape, want)
	}
	if dst.Shape != f.OutputShape() {
		return fmt.Errorf("layers: %s: output shape %v, want %v", f.LayerName, dst.Shape, f.OutputShape())
	}
	if err := checkScratch(f, dst.Layout, scratch); err != nil {
		return err
	}
	// The contraction's B is the features k-major, the images fastest (k in
	// canonical (C,H,W) order).  An input whose features flatten to one stride
	// with the images contiguous (CHWN) already is that matrix; any other is
	// transposed into the scratch.
	feats, step := in.Data, 0
	if sn, sk, ok := flatStrides(in); ok && sn == 1 {
		step = sk
	} else {
		feats, step = scratch[:f.Batch*f.InDim], f.Batch
		src := stridesOf(in)
		k := 0
		for c := 0; c < in.Shape.C; c++ {
			for h := 0; h < in.Shape.H; h++ {
				for w := 0; w < in.Shape.W; w++ {
					row := src.data[c*src.c+h*src.h+w*src.w:]
					col := feats[k*f.Batch : (k+1)*f.Batch]
					for n := range col {
						col[n] = row[n*src.n]
					}
					k++
				}
			}
		}
	}
	out := stridesOf(dst)
	kernels.FCInto(kernels.FC{Rows: f.OutDim, Lanes: f.Batch, Steps: f.InDim,
		A: f.Weights(), ARow: f.InDim, AStep: 1,
		B: feats, BStep: step, BLane: 1,
		Out: dst.Data, OutRow: out.c, OutLane: out.n})
	return nil
}

// ReLU is the element-wise rectifier.  It is purely bandwidth bound and
// layout agnostic; it participates in whole-network totals only.
type ReLU struct {
	LayerName string
	Shape     tensor.Shape
}

// NewReLU builds a ReLU layer.
func NewReLU(name string, shape tensor.Shape) (*ReLU, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("layers: relu shape %v invalid", shape)
	}
	return &ReLU{LayerName: name, Shape: shape}, nil
}

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// InputShape implements Layer.
func (r *ReLU) InputShape() tensor.Shape { return r.Shape }

// OutputShape implements Layer.
func (r *ReLU) OutputShape() tensor.Shape { return r.Shape }

// WithBatch implements Layer: the rectifier is stateless, so the clone
// only changes the batch dimension.
func (r *ReLU) WithBatch(batch int) (Layer, error) {
	shape := r.Shape
	shape.N = batch
	return NewReLU(r.LayerName, shape)
}

// WorkspaceElems implements Layer: the rectifier needs no scratch.
func (r *ReLU) WorkspaceElems(tensor.Layout) int { return 0 }

// ForwardsInPlace implements Layer: the same-layout path reads each element
// exactly once, at the index it writes, so dst may alias in under any layout.
func (r *ReLU) ForwardsInPlace(tensor.Layout) bool { return true }

// ForwardInto implements Layer: element-wise over a shared layout, so a single
// linear pass over the backing slices.
func (r *ReLU) ForwardInto(in, dst *tensor.Tensor, _ []float32) error {
	if in.Shape != r.Shape || in.Layout != dst.Layout {
		return fmt.Errorf("layers: %s: input %v %v, want %v %v", r.LayerName, in.Shape, in.Layout, r.Shape, dst.Layout)
	}
	if dst.Shape != r.Shape {
		return fmt.Errorf("layers: %s: output shape %v, want %v", r.LayerName, dst.Shape, r.Shape)
	}
	for i, v := range in.Data {
		if v < 0 {
			v = 0
		}
		dst.Data[i] = v
	}
	return nil
}

// LRN is the local response normalisation layer used by AlexNet: each value
// is divided by a function of the sum of squares of its channel neighbours.
type LRN struct {
	LayerName string
	Shape     tensor.Shape
	LocalSize int
	Alpha     float64
	Beta      float64
}

// NewLRN builds an LRN layer with AlexNet's default parameters when alpha or
// beta are zero.
func NewLRN(name string, shape tensor.Shape, localSize int, alpha, beta float64) (*LRN, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("layers: lrn shape %v invalid", shape)
	}
	if localSize <= 0 {
		return nil, fmt.Errorf("layers: lrn local size must be positive")
	}
	if alpha == 0 {
		alpha = 1e-4
	}
	if beta == 0 {
		beta = 0.75
	}
	return &LRN{LayerName: name, Shape: shape, LocalSize: localSize, Alpha: alpha, Beta: beta}, nil
}

// Name implements Layer.
func (l *LRN) Name() string { return l.LayerName }

// InputShape implements Layer.
func (l *LRN) InputShape() tensor.Shape { return l.Shape }

// OutputShape implements Layer.
func (l *LRN) OutputShape() tensor.Shape { return l.Shape }

// WithBatch implements Layer: normalisation is stateless, so the clone
// only changes the batch dimension.
func (l *LRN) WithBatch(batch int) (Layer, error) {
	shape := l.Shape
	shape.N = batch
	return NewLRN(l.LayerName, shape, l.LocalSize, l.Alpha, l.Beta)
}

// WorkspaceElems implements Layer: normalisation needs no scratch.
func (l *LRN) WorkspaceElems(tensor.Layout) int { return 0 }

// ForwardsInPlace implements Layer.  The cross-channel window reads a
// neighbourhood of the input for every output value: an in-place run would
// square channels that were already normalised.
func (l *LRN) ForwardsInPlace(tensor.Layout) bool { return false }

// ForwardInto implements Layer.
func (l *LRN) ForwardInto(in, dst *tensor.Tensor, _ []float32) error {
	if in.Shape != l.Shape {
		return fmt.Errorf("layers: %s: input shape %v, want %v", l.LayerName, in.Shape, l.Shape)
	}
	if dst.Shape != l.Shape {
		return fmt.Errorf("layers: %s: output shape %v, want %v", l.LayerName, dst.Shape, l.Shape)
	}
	par.Planes(l.Shape.N*l.Shape.C, lrnJob{in: stridesOf(in), out: stridesOf(dst), shape: l.Shape,
		half: l.LocalSize / 2, alphaN: l.Alpha / float64(l.LocalSize), beta: l.Beta}, lrnPlane)
	return nil
}

// lrnLanes is the number of squared sums lrnPlane keeps live per tile.
const lrnLanes = 64

// lrnJob is one LRN forward; alphaN is alpha over the window size.
type lrnJob struct {
	in, out      strided
	shape        tensor.Shape
	half         int
	alphaN, beta float64
}

// lrnPlane normalises plane (n, c).  It walks the plane's rows in tiles of
// lrnLanes pixels along W, adds the squares of the window's channels into a
// float64 tile channel by channel (ascending, as the per-pixel loop it
// replaces summed them) and scales the tile's pixels by (1 + alphaN·sum)^-beta
// through lrnScale.
func lrnPlane(j lrnJob, p int) {
	in, out := &j.in, &j.out
	n, c := p/j.shape.C, p%j.shape.C
	lo, hi := max(c-j.half, 0), min(c+j.half, j.shape.C-1)
	var tile, xTile [lrnLanes]float64
	for h := 0; h < j.shape.H; h++ {
		for w0 := 0; w0 < j.shape.W; w0 += lrnLanes {
			sq := tile[:min(lrnLanes, j.shape.W-w0)]
			clear(sq)
			at := n*in.n + h*in.h + w0*in.w
			for cc := lo; cc <= hi; cc++ {
				src := in.data[at+cc*in.c:]
				for i := range sq {
					v := float64(src[i*in.w])
					sq[i] += v * v
				}
			}
			src, x := in.data[at+c*in.c:], xTile[:len(sq)]
			for i := range sq {
				sq[i] = 1 + j.alphaN*sq[i]
				x[i] = float64(src[i*in.w])
			}
			lrnScale(out.data[n*out.n+c*out.c+h*out.h+w0*out.w:], out.w, x, sq, -j.beta)
		}
	}
}

// lrnGuard is how far, in float64 ulps, lrnScale's quotient must lie from a
// float32 rounding midpoint to be taken: over 300 times the largest gap
// between the quotient and the math.Pow form seen on 1 ≤ s < 2^64, 12 ulps
// in 20 M seeded pairs (TestLRNQuotientStaysNearPow fails above lrnGuard/64).
const lrnGuard = 1 << 12

// lrnScale sets dst[i·stride] = float32(x[i] · math.Pow(s[i], e)) for every i
// with exactly that expression's bits.  For the two exponents AlexNet's LRN
// raises s to (β = 0.75: -β in the forward, -β-1 in the backward) and
// 1 ≤ s[i] < 2^64 it divides x[i] by lrnDenominator's s[i]^-e instead, and
// takes the quotient only when rounding it to float32 cannot differ from
// rounding the math.Pow form (Ziv's rounding test): its exponent is a normal
// float32 one, and the 29 low mantissa bits that float32 drops lie more than
// lrnGuard from their midpoint 2^28, farther than the two forms are apart.
// Every other case (another exponent, a NaN or infinite s or x, a subnormal
// result, one near a midpoint) runs the math.Pow form.  It takes a tile, not
// one value, so the loop runs without a call per element.
func lrnScale(dst []float32, stride int, x, s []float64, e float64) {
	fast := e == -0.75 || e == -1.75
	for i, si := range s {
		xi := x[i]
		if fast && 1 <= si && si < 0x1p64 {
			if xi == 0 {
				dst[i*stride] = float32(xi) // keeps a -0
				continue
			}
			y := xi / lrnDenominator(si, e)
			b := math.Float64bits(y)
			exp := b >> 52 & 0x7ff
			mid := int64(b&(1<<29-1)) - 1<<28
			if 1023-126 <= exp && exp <= 1023+127 && (mid > lrnGuard || mid < -lrnGuard) {
				dst[i*stride] = float32(y)
				continue
			}
		}
		dst[i*stride] = float32(xi * math.Pow(si, e))
	}
}

// lrnDenominator is s^-e for e = -0.75 or -1.75: r·√r or s·r·√r with r = √s,
// two correctly rounded square roots and one or two products, a few float64
// ulps from the math.Pow form.
func lrnDenominator(s, e float64) float64 {
	r := math.Sqrt(s)
	d := r * math.Sqrt(r)
	if e == -1.75 {
		d *= s
	}
	return d
}

// strided is a tensor's backing slice with the element stride of each logical
// dimension.
type strided struct {
	data       []float32
	n, c, h, w int
}

func stridesOf(t *tensor.Tensor) strided {
	sn, sc, sh, sw := t.Shape.Strides(t.Layout)
	return strided{data: t.Data, n: sn, c: sc, h: sh, w: sw}
}

// flatStrides returns the image stride of t and the stride of its flattened
// features, k over (C,H,W) in canonical order, when the features sit at one
// stride (NCHW and CHWN, and any layout of an N×C×1×1 tensor).
func flatStrides(t *tensor.Tensor) (sn, sk int, ok bool) {
	s := t.Shape
	sn, sc, sh, sw := s.Strides(t.Layout)
	switch {
	case s.W > 1:
		sk = sw
	case s.H > 1:
		sk = sh
	default:
		sk = sc
	}
	ok = (s.H == 1 || sh == s.W*sk) && (s.C == 1 || sc == s.H*s.W*sk)
	return sn, sk, ok
}
