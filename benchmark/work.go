package main

import (
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	memruntime "memcnn/internal/runtime"
)

// Kernel classes: the module function an op spends its time in.  Per-layer
// metric names are built from these.
const (
	classDirect         = "direct"
	classGemm           = "gemm"
	classFFT            = "fft"
	classPool           = "pool"
	classSoftmax        = "softmax"
	classFC             = "fc"
	classLRN            = "lrn"
	classReLU           = "relu"
	classTransform      = "transform"
	classBackwardData   = "backward_data"
	classBackwardFilter = "backward_filter"
	classOther          = "other" // non-conv backward ops, loss gradient, SGD
)

// convClass maps a convolution's compiled algorithm to its kernel class.
var convClass = map[kernels.ConvAlgorithm]string{
	kernels.ConvAlgDirect: classDirect, kernels.ConvAlgGemm: classGemm, kernels.ConvAlgFFT: classFFT,
}

// opInfo is what a traced op span carries besides its interval.  FLOPs and
// bytes are computed from the op's shapes, never measured: this is a CPU run,
// so they say how much work the kernel was asked to do, not what the memory
// system did.
type opInfo struct {
	name   string
	kind   string // runtime.OpKind
	class  string
	alg    string // convolution algorithm, "" for other layers
	layout string // layout of the op's input buffer
	flops  float64
	bytes  float64
}

// convWork is the work of one convolution in any direction: the forward pass,
// the input gradient and the filter gradient each perform one multiply-add per
// (output element, filter tap), and each touches the input-sized, output-sized
// and filter-sized operand once.
func convWork(cfg kernels.ConvConfig) (flops, bytes float64) {
	return cfg.FLOPs(), float64(cfg.InputShape().Bytes() + cfg.OutputShape().Bytes() + cfg.FilterShape().Bytes())
}

// poolWork is one compare or add per window element, reading the input and
// writing the output once.
func poolWork(cfg kernels.PoolConfig) (flops, bytes float64) {
	return cfg.FLOPs(), float64(cfg.InputShape().Bytes() + cfg.OutputShape().Bytes())
}

// fcWork is the batch × in × out matrix product and its three operands.
func fcWork(batch, in, out int) (flops, bytes float64) {
	return 2 * float64(batch) * float64(in) * float64(out),
		4 * (float64(batch)*float64(in) + float64(in)*float64(out) + float64(batch)*float64(out))
}

// describeOp classifies one compiled op and computes its work.
func describeOp(p *memruntime.Program, op memruntime.Op) opInfo {
	info := opInfo{
		name: op.Name, kind: op.Kind.String(), class: classOther,
		layout: p.Buffers[op.In].Layout.String(),
		bytes:  float64(p.Buffers[op.In].Bytes() + p.Buffers[op.Out].Bytes()),
	}
	if op.Aux != memruntime.NoBuffer {
		info.bytes += float64(p.Buffers[op.Aux].Bytes())
	}
	switch op.Kind {
	case memruntime.OpTransform, memruntime.OpReshape:
		info.class = classTransform
		return info
	case memruntime.OpLayer, memruntime.OpRecompute:
		switch l := op.Layer.(type) {
		case *layers.Conv:
			info.alg = op.Alg.String()
			info.class = convClass[op.Alg]
			info.flops, info.bytes = convWork(l.Cfg)
		case *layers.Pool:
			info.class = classPool
			info.flops, info.bytes = poolWork(l.Cfg)
		case *layers.FullyConnected:
			info.class = classFC
			info.flops, info.bytes = fcWork(l.Batch, l.InDim, l.OutDim)
		case *layers.LRN:
			info.class = classLRN
			// A window of LocalSize squares and adds, then a power and a divide.
			info.flops = float64(l.Shape.Elems()) * float64(2*l.LocalSize+2)
		case *layers.ReLU:
			info.class = classReLU
			info.flops = float64(l.Shape.Elems())
		case *layers.Softmax:
			info.class = classSoftmax
			// Max, subtract, exponentiate, sum, divide.
			info.flops = 5 * float64(l.Cfg.Elems())
		}
	case memruntime.OpBackward:
		if l, ok := op.Layer.(*layers.Conv); ok {
			info.class = classBackwardData
			info.flops, info.bytes = convWork(l.Cfg)
		}
	case memruntime.OpGradFilter:
		if l, ok := op.Layer.(*layers.Conv); ok {
			info.class = classBackwardFilter
			info.flops, info.bytes = convWork(l.Cfg)
		}
	}
	return info
}
