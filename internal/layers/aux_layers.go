package layers

import (
	"fmt"
	"math"
	"sync"

	"memcnn/internal/gpusim"
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

// SupportsLayout implements Layer.  With H = W = 1 the NCHW and CHWN
// linearisations are the only two distinct ones the libraries use; the kernel
// cost does not depend on which, so both are accepted.
func (s *Softmax) SupportsLayout(l tensor.Layout) bool {
	return l == tensor.CHWN || l == tensor.NCHW
}

// WithBatch implements Layer: the classifier is stateless, so the clone
// only changes the batch dimension.
func (s *Softmax) WithBatch(batch int) (Layer, error) {
	cfg := s.Cfg
	cfg.N = batch
	return NewSoftmax(s.LayerName, cfg)
}

// Cost implements Layer.
func (s *Softmax) Cost(d *gpusim.Device, l tensor.Layout, opts CostOptions) ([]gpusim.KernelStats, error) {
	if !s.SupportsLayout(l) {
		return nil, fmt.Errorf("layers: %s: unsupported layout %v", s.LayerName, l)
	}
	return []gpusim.KernelStats{kernels.SoftmaxCost(d, s.Cfg, opts.Softmax)}, nil
}

// WorkspaceElems implements Layer: staging room for the logit and probability
// matrices (each skipped when the corresponding tensor is already in the
// canonical NCHW linearisation).
func (s *Softmax) WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error) {
	return ownKernel(s, alg, l, 2*s.Cfg.Elems())
}

// ForwardsInPlace implements Layer: each probability reads its whole row.
func (s *Softmax) ForwardsInPlace(tensor.Layout) bool { return false }

// ForwardInto implements Layer.
func (s *Softmax) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	if in.Shape != s.InputShape() {
		return fmt.Errorf("layers: %s: input shape %v, want %v", s.LayerName, in.Shape, s.InputShape())
	}
	if dst.Shape != s.OutputShape() {
		return fmt.Errorf("layers: %s: output shape %v, want %v", s.LayerName, dst.Shape, s.OutputShape())
	}
	if err := checkScratch(s, alg, dst.Layout, scratch); err != nil {
		return err
	}
	elems := s.Cfg.Elems()
	// With N×C×1×1 shapes the NCHW backing slice is the row-major logit
	// matrix itself; other layouts stage through the scratch.
	logits := in.Data
	if in.Layout != tensor.NCHW {
		logits = scratch[:elems]
		src := stridesOf(in)
		for n := 0; n < s.Cfg.N; n++ {
			row := logits[n*s.Cfg.Classes : (n+1)*s.Cfg.Classes]
			for c := range row {
				row[c] = src.data[n*src.n+c*src.c]
			}
		}
	}
	probs := dst.Data
	if dst.Layout != tensor.NCHW {
		probs = scratch[elems : 2*elems]
	}
	if err := kernels.SoftmaxInto(probs, logits, s.Cfg); err != nil {
		return err
	}
	if dst.Layout != tensor.NCHW {
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
// multiplication regardless of the activation layout, so its cost is layout
// independent — it only matters for whole-network totals.
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

// SupportsLayout implements Layer.
func (f *FullyConnected) SupportsLayout(l tensor.Layout) bool {
	return l == tensor.CHWN || l == tensor.NCHW
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

// Cost implements Layer: one SGEMM of (OutDim × InDim) by (InDim × Batch).
func (f *FullyConnected) Cost(d *gpusim.Device, l tensor.Layout, _ CostOptions) ([]gpusim.KernelStats, error) {
	if !f.SupportsLayout(l) {
		return nil, fmt.Errorf("layers: %s: unsupported layout %v", f.LayerName, l)
	}
	s := kernels.GemmCost(d, kernels.GemmCostConfig{M: f.OutDim, N: f.Batch, K: f.InDim})
	s.Name = fmt.Sprintf("fc %s %dx%d", f.LayerName, f.InDim, f.OutDim)
	return []gpusim.KernelStats{s}, nil
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

// WorkspaceElems implements Layer: staging room for the flattened feature
// matrix (skipped when the input is already in the canonical NCHW
// linearisation).
func (f *FullyConnected) WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error) {
	return ownKernel(f, alg, l, f.Batch*f.InDim)
}

// ForwardsInPlace implements Layer: each output reads a whole feature row.
func (f *FullyConnected) ForwardsInPlace(tensor.Layout) bool { return false }

// ForwardInto implements Layer.
func (f *FullyConnected) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	want := f.InputShape()
	if in.Shape.Elems() != want.Elems() || in.Shape.N != f.Batch {
		return fmt.Errorf("layers: %s: input shape %v incompatible with %v", f.LayerName, in.Shape, want)
	}
	if dst.Shape != f.OutputShape() {
		return fmt.Errorf("layers: %s: output shape %v, want %v", f.LayerName, dst.Shape, f.OutputShape())
	}
	if err := checkScratch(f, alg, dst.Layout, scratch); err != nil {
		return err
	}
	// Flatten each image's features in canonical (C,H,W) order.  An NCHW
	// backing slice already is that flattening, so no staging copy is needed.
	flat := in.Data
	if in.Layout != tensor.NCHW {
		flat = scratch[:f.Batch*f.InDim]
		src := stridesOf(in)
		idx := 0
		for n := 0; n < in.Shape.N; n++ {
			for c := 0; c < in.Shape.C; c++ {
				for h := 0; h < in.Shape.H; h++ {
					row := src.data[n*src.n+c*src.c+h*src.h:]
					for w := 0; w < in.Shape.W; w++ {
						flat[idx] = row[w*src.w]
						idx++
					}
				}
			}
		}
	}
	par.Planes(f.OutDim, fcJob{flat: flat, weights: f.Weights(), out: stridesOf(dst), batch: f.Batch, inDim: f.InDim}, fcOutput)
	return nil
}

// fcJob is one fully-connected forward: the flattened batch×inDim features,
// the outDim×inDim weights and the output tensor.
type fcJob struct {
	flat, weights []float32
	out           strided
	batch, inDim  int
}

// fcOutput computes output o of every image: out[n][o] = Σ_k W[o][k]·flat[n][k],
// a float64 sum in ascending k rounded to float32 once.  The weight row is
// walked once per four images, each with its own accumulator, so the weights
// (the large operand: 151 MB in AlexNet's fc6) stream through the cache once a
// batch instead of once an image.  The product of two float32 values is exact
// in float64, so its operand order is immaterial.
func fcOutput(j fcJob, o int) {
	wRow := j.weights[o*j.inDim : (o+1)*j.inDim]
	dst := j.out.data[o*j.out.c:]
	n := 0
	for ; n+4 <= j.batch; n += 4 {
		r0 := j.flat[(n+0)*j.inDim:][:len(wRow)]
		r1 := j.flat[(n+1)*j.inDim:][:len(wRow)]
		r2 := j.flat[(n+2)*j.inDim:][:len(wRow)]
		r3 := j.flat[(n+3)*j.inDim:][:len(wRow)]
		var a0, a1, a2, a3 float64
		for k, wv := range wRow {
			w := float64(wv)
			a0 += float64(r0[k]) * w
			a1 += float64(r1[k]) * w
			a2 += float64(r2[k]) * w
			a3 += float64(r3[k]) * w
		}
		dst[(n+0)*j.out.n] = float32(a0)
		dst[(n+1)*j.out.n] = float32(a1)
		dst[(n+2)*j.out.n] = float32(a2)
		dst[(n+3)*j.out.n] = float32(a3)
	}
	for ; n < j.batch; n++ {
		row := j.flat[n*j.inDim:][:len(wRow)]
		var acc float64
		for k, wv := range wRow {
			acc += float64(row[k]) * float64(wv)
		}
		dst[n*j.out.n] = float32(acc)
	}
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

// SupportsLayout implements Layer.
func (r *ReLU) SupportsLayout(tensor.Layout) bool { return true }

// WithBatch implements Layer: the rectifier is stateless, so the clone
// only changes the batch dimension.
func (r *ReLU) WithBatch(batch int) (Layer, error) {
	shape := r.Shape
	shape.N = batch
	return NewReLU(r.LayerName, shape)
}

// Cost implements Layer: one streaming pass, read + write.
func (r *ReLU) Cost(d *gpusim.Device, _ tensor.Layout, _ CostOptions) ([]gpusim.KernelStats, error) {
	bytes := float64(r.Shape.Bytes())
	return []gpusim.KernelStats{{
		Name:              "relu " + r.LayerName,
		GridBlocks:        ceil(r.Shape.Elems(), 256),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 16},
		Launches:          1,
		FLOPs:             float64(r.Shape.Elems()),
		ComputeEfficiency: 1,
		DRAMReadBytes:     bytes,
		DRAMWriteBytes:    bytes,
		UsefulReadBytes:   bytes,
		UsefulWriteBytes:  bytes,
	}}, nil
}

// WorkspaceElems implements Layer: the rectifier needs no scratch.
func (r *ReLU) WorkspaceElems(alg kernels.ConvAlgorithm, l tensor.Layout) (int, error) {
	return ownKernel(r, alg, l, 0)
}

// ForwardsInPlace implements Layer: the same-layout path reads each element
// exactly once, at the index it writes, so dst may alias in under any layout.
func (r *ReLU) ForwardsInPlace(tensor.Layout) bool { return true }

// ForwardInto implements Layer: element-wise over a shared layout, so a single
// linear pass over the backing slices.
func (r *ReLU) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	if err := checkScratch(r, alg, dst.Layout, scratch); err != nil {
		return err
	}
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

// SupportsLayout implements Layer.
func (l *LRN) SupportsLayout(tensor.Layout) bool { return true }

// WithBatch implements Layer: normalisation is stateless, so the clone
// only changes the batch dimension.
func (l *LRN) WithBatch(batch int) (Layer, error) {
	shape := l.Shape
	shape.N = batch
	return NewLRN(l.LayerName, shape, l.LocalSize, l.Alpha, l.Beta)
}

// Cost implements Layer: the cross-channel window makes it read the
// neighbourhood of every element; part of the re-reads hit in cache.
func (l *LRN) Cost(d *gpusim.Device, _ tensor.Layout, _ CostOptions) ([]gpusim.KernelStats, error) {
	bytes := float64(l.Shape.Bytes())
	return []gpusim.KernelStats{{
		Name:              "lrn " + l.LayerName,
		GridBlocks:        ceil(l.Shape.Elems(), 256),
		Block:             gpusim.BlockResources{ThreadsPerBlock: 256, RegsPerThread: 32},
		Launches:          1,
		FLOPs:             float64(l.Shape.Elems()) * float64(2*l.LocalSize+10),
		ComputeEfficiency: 0.4,
		DRAMReadBytes:     bytes * 2,
		DRAMWriteBytes:    bytes,
		UsefulReadBytes:   bytes,
		UsefulWriteBytes:  bytes,
	}}, nil
}

// WorkspaceElems implements Layer: normalisation needs no scratch.
func (l *LRN) WorkspaceElems(alg kernels.ConvAlgorithm, lay tensor.Layout) (int, error) {
	return ownKernel(l, alg, lay, 0)
}

// ForwardsInPlace implements Layer.  The cross-channel window reads a
// neighbourhood of the input for every output value: an in-place run would
// square channels that were already normalised.
func (l *LRN) ForwardsInPlace(tensor.Layout) bool { return false }

// ForwardInto implements Layer.
func (l *LRN) ForwardInto(in, dst *tensor.Tensor, alg kernels.ConvAlgorithm, scratch []float32) error {
	if err := checkScratch(l, alg, dst.Layout, scratch); err != nil {
		return err
	}
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
// replaces summed them) and scales each pixel by (1 + alphaN·sum)^-beta.
func lrnPlane(j lrnJob, p int) {
	in, out := &j.in, &j.out
	n, c := p/j.shape.C, p%j.shape.C
	lo, hi := max(c-j.half, 0), min(c+j.half, j.shape.C-1)
	var tile [lrnLanes]float64
	for h := 0; h < j.shape.H; h++ {
		for w0 := 0; w0 < j.shape.W; w0 += lrnLanes {
			sq := tile[:min(lrnLanes, j.shape.W-w0)]
			for i := range sq {
				sq[i] = 0
			}
			at := n*in.n + h*in.h + w0*in.w
			for cc := lo; cc <= hi; cc++ {
				src := in.data[at+cc*in.c:]
				for i := range sq {
					v := float64(src[i*in.w])
					sq[i] += v * v
				}
			}
			src := in.data[at+c*in.c:]
			dst := out.data[n*out.n+c*out.c+h*out.h+w0*out.w:]
			for i, sum := range sq {
				scale := math.Pow(1+j.alphaN*sum, -j.beta)
				dst[i*out.w] = float32(float64(src[i*in.w]) * scale)
			}
		}
	}
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

func ceil(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}
