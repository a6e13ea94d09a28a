package autotune

import (
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// The host price list: what one call of a layer's kernel costs on the CPU
// that runs every compiled program, in estimated seconds, work ÷ rate +
// per-call cost.  It is the host's peer of gpusim.LayerCost, and the
// compiler's selection pass (runtime.SelectChoices) prices each layer's
// (layout, algorithm) candidates and the layout transforms between them with
// it.  The convolution candidates are the paper's observation that no single
// strategy wins across layer shapes (Sections II.B, IV.A); the layouts are its
// §IV.D decision.  Every rate is this repository's kernels measured on a
// 2-vCPU 2.1 GHz AVX2 Xeon, and its comment names the sub-benchmark that
// reproduces it: the convolution rates `go test -run '^$' -bench
// ConvAlgorithms -benchtime=20x .` (2026-10-04, the batch-folded ones
// re-read 2026-10-17 with the Cifar10 rows at N = 1, 2 and 4, GemmRunNS
// 2026-10-18 once every layout ran the lane loop), the other
// layers' `go test -run '^$' -bench LayerRates -benchtime=20x .`
// (2026-10-17).  Re-run them and edit the list when a kernel or the host
// changes.

// PerLayout is one rate measured in each of the two layouts the price list
// prices.  A layer in any other layout has no price, so no candidate there.
type PerLayout struct{ NCHW, CHWN float64 }

func (r PerLayout) in(lay tensor.Layout) (float64, bool) {
	switch lay {
	case tensor.NCHW:
		return r.NCHW, true
	case tensor.CHWN:
		return r.CHWN, true
	}
	return 0, false
}

// Prices is a price list: the rates HostPrices measured, or a copy with one
// changed (the selection tests flip a decision that way).
type Prices struct {
	// DirectGFLOPS is the direct lane walk: 2.3–5.4 on 5×5 shapes in NCHW
	// (`lenet-conv1@n128/direct`, `cifar10-conv1@n8/direct`), 3.2–6.6 in CHWN
	// (`lenet-conv2@n128/direct-chwn`), about 1 on `1img-small/direct`.
	DirectGFLOPS float64
	// GemmGFLOPS is the packed GEMM core once the unroll below is paid for:
	// `alexnet-conv2@n32/gemm` and `vgg-conv3_1/gemm` read 78–85 and 69–89
	// overall on the fused multiply-add core (2026-10-19), with 256 filters
	// to spread each unrolled element over, against a two-worker
	// `BenchmarkGemmMicroPeak` (internal/kernels) of 88–108.
	GemmGFLOPS float64
	// GemmUnrollNS and GemmRunNS are what the unroll costs per element of
	// the (C·FH·FW) × (N·OutH·OutW) unroll matrix: GemmUnrollNS +
	// GemmRunNS/run, where run is the layout's run of consecutive images: N
	// in CHWN, 1 in NCHW, and 1 for one image, which is one memory and one
	// column order in either layout.  At N = 128
	// (`lenet-conv2@n128/gemm-chwn`, 6.8–9.9 ms over 10.0 M elements) the
	// first is all of it.  At small N a window on the image's edge copies runs
	// of only N floats: `cifar10-conv2@n2/gemm-chwn` (1.1–1.9 ms),
	// `cifar10-conv1@n4/gemm-chwn` (0.40–0.62 ms) and the other @n2, @n4 and
	// @n8 rows read 0.5–1.2 ns an element above it at N = 2 and 4 and 0.1 at
	// N = 8, which 1.7/N follows within a factor of two.  The sum, 2.05 ns, is
	// NCHW's rate, whose copies are pieces of output rows, and one image's:
	// `cifar10-conv2@n8/gemm` runs 4.8–6.6 ms and `cifar10-conv2@n1/gemm` and
	// its -chwn row 0.65–1.06 ms, 1.8–2.2 ns an element beyond the product;
	// a 21×21 filter on 32×32 images (14–17 ms), whose taps are mostly
	// padding, reads under 1.
	GemmUnrollNS, GemmRunNS float64
	// SyncUS is one goroutine fan-out: `1img-tiny/direct` runs 4–6 µs and `1img-tiny/gemm` 9–19 µs for 1.3 kFLOP
	// (at the default -benchtime: a process's first calls run several times
	// slower).
	SyncUS float64
	// ConvertGBs is tensor.ConvertInto between NCHW and CHWN, per byte of
	// tensor: `go test -run '^$' -bench ConvertCHWNToNCHW ./internal/tensor`
	// (0.9 GB/s).  It prices every transform the selection puts between two
	// layers, and the staging of the program's input and output from and to
	// NCHW, the layout callers hand tensors in.
	ConvertGBs float64
	// PoolTapNS is pooling per window tap (output element × window area):
	// `LayerRates/lenet@n128/pool1` 3.2–3.5 ns, `cifar10@n8/pool1` 2.3–3.6,
	// `alexnet@n4/pool1` and its -chwn row (4 lanes, no vector) 2.0–2.6.
	// Max pooling's whole 8-image chunks in CHWN run the vector body at
	// PoolVecTapNS: 0.18–0.28 on the lenet@n128 -chwn rows, 0.36–0.73 on the
	// cifar10@n8 ones, which make one call a chunk (2026-10-19, five runs).
	PoolTapNS    PerLayout
	PoolVecTapNS float64
	// FCGFLOPS is the fully-connected product, 2·N·In·Out FLOPs, on the
	// float64 FMA contraction (kernels.FCInto): 19–22 on
	// `LayerRates/lenet@n128/fc1-chwn`, `cifar10@n8/fc1-chwn` and
	// `alexnet@n4/fc6-chwn`, `fc7-chwn`, `fc8-chwn` (medians of five runs,
	// 2026-10-19).  NCHW transposes its input into the scratch first, priced
	// as the transform it is (Convert): its rows run the same product
	// 0.0–0.3 ms slower.  fc6 at batch 4 reads its 151 MB of weights at the
	// host's stream rate: 14 ms against `StreamRead`'s 16 in the same runs.
	// A call pays one fan-out (SyncUS), as a convolution does.
	FCGFLOPS PerLayout
	// ReLUNS is the rectifier per element, in place: 5.5–6.8 in either layout
	// (`LayerRates/alexnet@n4/conv1_relu`, `LayerRates/lenet@n128/relu1`).
	ReLUNS PerLayout
	// LRNNS is cross-channel normalisation per element, two square roots and
	// a divide where the old loop called math.Pow: 14–16 in either layout on
	// `LayerRates/alexnet@n4/norm1` (29 on a process's first row), 14–17 and
	// 14–19 on `norm2` and its -chwn row (2026-10-18, eight runs; the old
	// loop read 53–74 in the same minutes).  Those rows were uniform inputs;
	// since they are ReLU'd as in AlexNet (about half zeros, whose power the
	// layer skips) they read 11–20 in NCHW and 12–16 in CHWN, against 13–24
	// for the uniform rows in the same minutes (four alternating runs): within
	// the spread, so the rate stays.
	LRNNS PerLayout
	// SoftmaxNS is the classifier per element: 7–26 in NCHW, and 10–31 in
	// CHWN, which stages both sides (`LayerRates/alexnet@n4/prob`,
	// `LayerRates/lenet@n128/prob`).
	SoftmaxNS PerLayout

	// The gradient rates price what a training step runs beyond the forward
	// pass; only Step reads them.  They were read against the forward rows
	// of the same runs, because the host's speed moved by up to 2× between
	// runs that day: `go test -run '^$' -bench 'ConvAlgorithms/train-'
	// -benchtime=20x .` and the /bwd rows of LayerRates (2026-10-18).

	// gradMoveNS is a convolution's two GEMM gradients per element they
	// move, beyond their two products at GemmGFLOPS: the data gradient
	// gathers dY (K·N·OutH·OutW) and adds the C·FH·FW × N·OutH·OutW product
	// back, the filter gradient packs dY and unrolls the input as large.
	// Both are batch-folded in every layout; CHWN walks runs of consecutive
	// images and adds the data gradient's product in place, NCHW walks the
	// same runs an image apart: `train-lenet-conv2@n16/bwd-data-chwn` and
	// `/grad-filter-chwn` run 1.4 and 2.2 ms against the forward's 0.87 (2.6
	// M elements), their NCHW rows 3.4 and 1.9; the `train-cifar10-conv2@n8`
	// rows read 1.1 ns an element in CHWN and 2.0 in NCHW.
	gradMoveNS PerLayout
	// poolBackTapNS is pooling's backward per window tap: 1.3–1.7× its
	// forward (`LayerRates/lenet@n128/pool1/bwd`, `LayerRates/cifar10@n8/pool1/bwd`
	// and their -chwn rows).  The rectifier's backward runs at ReLUNS
	// (`LayerRates/lenet@n128/relu1/bwd` reads the forward's time).
	poolBackTapNS PerLayout
	// fcBackGFLOPS and fcBackGBs are the fully-connected layer's two
	// gradients in NCHW: 4·N·In·Out FLOPs, and the weights read by the data
	// gradient and the weight gradient written, 8·In·Out bytes, at the
	// host's stream rate (`StreamRead`, 8–11 GB/s).  At batch 128 the FLOPs
	// are all of it (`LayerRates/lenet@n128/fc1/bwd`, 2.2–2.7 ms); at batch
	// 4 each weight is touched for four images and the data gradient's
	// blocks run half empty, so `alexnet@n4/fc6/bwd`, `fc7/bwd` and
	// `fc8/bwd` read 1.6–1.7× the estimate and lenet 0.7× (2026-10-19, five
	// runs).  Each gradient is one fan-out.  In CHWN no free axis of the
	// filter gradient is contiguous and it walks strides in the portable
	// body (the -chwn/bwd rows run 2.5–5× the NCHW ones), so the list has no
	// rate there.
	fcBackGFLOPS, fcBackGBs float64
	// lrnBackNS is cross-channel normalisation's backward per element, a
	// sequential walk of each pixel's channels along their strides: 75–103 in
	// NCHW on `LayerRates/alexnet@n4/norm1/bwd` and `norm2/bwd`, 104–165 in
	// CHWN on their -chwn rows, whose channel stride is N times longer
	// (2026-10-18, eight runs; the At/Set loop read 311–531).  On ReLU'd
	// inputs they read 70–91 and 99–163 (four runs): the backward computes
	// every element's scale, zero or not.
	lrnBackNS PerLayout
}

// hostPrices is this host's price list.
var hostPrices = Prices{
	DirectGFLOPS:  3.5,
	GemmGFLOPS:    95,
	GemmUnrollNS:  0.35,
	GemmRunNS:     1.7,
	SyncUS:        4,
	ConvertGBs:    1,
	PoolTapNS:     PerLayout{NCHW: 2.4, CHWN: 2.2},
	PoolVecTapNS:  0.35,
	FCGFLOPS:      PerLayout{NCHW: 20, CHWN: 20},
	ReLUNS:        PerLayout{NCHW: 5.7, CHWN: 5.7},
	LRNNS:         PerLayout{NCHW: 16, CHWN: 16},
	SoftmaxNS:     PerLayout{NCHW: 10, CHWN: 12},
	gradMoveNS:    PerLayout{NCHW: 2, CHWN: 1.2},
	poolBackTapNS: PerLayout{NCHW: 3.6, CHWN: 3.2},
	fcBackGFLOPS:  12,
	fcBackGBs:     9,
	lrnBackNS:     PerLayout{NCHW: 90, CHWN: 125},
}

// HostPrices returns the price list measured on this repository's reference
// host.  It is the only way into the price list from outside the package, and
// the compiler's selection pass its only caller.
func HostPrices() Prices { return hostPrices }

// Layer prices one call of l's alg kernel on activations in lay, in seconds.
// ok is false when l has no such kernel or the list no rate for it: every
// layer but a convolution has only its own kernel (kernels.ConvAlgDirect),
// and a convolution has the direct and the GEMM kernel in either layout.
func (p Prices) Layer(l layers.Layer, lay tensor.Layout, alg kernels.ConvAlgorithm) (float64, bool) {
	if !l.SupportsLayout(lay) {
		return 0, false
	}
	if conv, ok := l.(*layers.Conv); ok {
		return p.Conv(conv.Cfg, lay, alg)
	}
	if alg != kernels.ConvAlgDirect {
		return 0, false
	}
	var rate PerLayout // ns per unit of work
	var work float64
	switch l := l.(type) {
	case *layers.FullyConnected:
		r, ok := p.FCGFLOPS.in(lay)
		t := 2*float64(l.Batch*l.InDim*l.OutDim)/(r*1e9) + p.SyncUS*1e-6
		if lay != tensor.CHWN {
			t += p.Convert(l.InputShape(), lay, tensor.CHWN)
		}
		return t, ok
	case *layers.Pool:
		rate, work = p.PoolTapNS, l.Cfg.FLOPs()
		if l.Cfg.Op == kernels.MaxPool { // CHWN's whole 8-image chunks run the vector body
			rate.CHWN += (p.PoolVecTapNS - rate.CHWN) * float64(l.Cfg.N&^7) / float64(l.Cfg.N)
		}
	case *layers.ReLU:
		rate, work = p.ReLUNS, float64(l.Shape.Elems())
	case *layers.LRN:
		rate, work = p.LRNNS, float64(l.Shape.Elems())
	case *layers.Softmax:
		rate, work = p.SoftmaxNS, float64(l.Cfg.Elems())
	default:
		return 0, false
	}
	r, ok := rate.in(lay)
	return work * r * 1e-9, ok
}

// Step prices what one training step runs for l with its activations in
// lay, in seconds: the forward (Layer) and the layer's gradients — both GEMM
// gradients of a convolution, the data gradient of pooling, ReLU and LRN,
// both gradients of a fully-connected layer.  The softmax's loss gradient is
// left out: it runs in NCHW whatever the list, so the softmax has a step
// price in NCHW alone.  ok is false where Layer has no price or the list
// prices no gradient in lay (a fully-connected layer outside NCHW).
func (p Prices) Step(l layers.Layer, lay tensor.Layout, alg kernels.ConvAlgorithm) (float64, bool) {
	fwd, ok := p.Layer(l, lay, alg)
	if !ok {
		return 0, false
	}
	var rate PerLayout // ns per unit of gradient work
	var work float64
	switch l := l.(type) {
	case *layers.Conv:
		cfg := l.Cfg.WithDefaults()
		rate, work = p.gradMoveNS, 2*float64((cfg.ReductionLength()+cfg.K)*cfg.N*cfg.OutH()*cfg.OutW())
		fwd += 2*cfg.FLOPs()/(p.GemmGFLOPS*1e9) + 2*p.SyncUS*1e-6
	case *layers.FullyConnected:
		weights := float64(l.InDim * l.OutDim)
		return fwd + 4*float64(l.Batch)*weights/(p.fcBackGFLOPS*1e9) + 8*weights/(p.fcBackGBs*1e9) + 2*p.SyncUS*1e-6, lay == tensor.NCHW
	case *layers.Pool:
		rate, work = p.poolBackTapNS, l.Cfg.FLOPs()
	case *layers.ReLU:
		rate, work = p.ReLUNS, float64(l.Shape.Elems())
	case *layers.LRN:
		rate, work = p.lrnBackNS, float64(l.Shape.Elems())
	case *layers.Softmax:
		return fwd, lay == tensor.NCHW
	default:
		return 0, false
	}
	r, ok := rate.in(lay)
	return fwd + work*r*1e-9, ok
}

// Conv prices one call of the convolution kernel alg on a layer whose input
// and output are in lay.  GEMM's unroll costs more per element the fewer
// images a copy moves.  ok is false for any other algorithm and for an
// invalid configuration.
func (p Prices) Conv(cfg kernels.ConvConfig, lay tensor.Layout, alg kernels.ConvAlgorithm) (float64, bool) {
	if cfg.Validate() != nil || (lay != tensor.NCHW && lay != tensor.CHWN) {
		return 0, false
	}
	switch alg {
	case kernels.ConvAlgDirect:
		return cfg.FLOPs()/(p.DirectGFLOPS*1e9) + p.SyncUS*1e-6, true
	case kernels.ConvAlgGemm:
		product := cfg.FLOPs() / (p.GemmGFLOPS * 1e9)
		n := float64(cfg.N)
		unroll, run := n*float64(cfg.ReductionLength()*cfg.OutH()*cfg.OutW()), 1.0
		if lay == tensor.CHWN {
			run = n
		}
		return product + unroll*(p.GemmUnrollNS+p.GemmRunNS/run)*1e-9 + p.SyncUS*1e-6, true
	}
	return 0, false
}

// Convert prices tensor.ConvertInto of a tensor of shape s between two
// layouts: nothing when they are the same, else its bytes at ConvertGBs.
func (p Prices) Convert(s tensor.Shape, from, to tensor.Layout) float64 {
	if from == to {
		return 0
	}
	return float64(s.Bytes()) / (p.ConvertGBs * 1e9)
}
