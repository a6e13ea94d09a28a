package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"

	"memcnn/internal/gpusim"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/tensor"
)

// Device abstracts the engine a compiled op runs on.  The executor owns the
// arena and the op ordering; a device only turns one op into results (and,
// when it models hardware, into time).  Two implementations exist:
//
//   - CPUDevice executes ops natively — it is the path every program ran on
//     before devices existed, bit for bit;
//   - SimDevice executes ops on the CPU for identical results while also
//     pricing them on an internal/gpusim hardware model, so sharded pipelines
//     report modeled device latency next to measured wall time.
//
// A Device must be safe for concurrent RunOp calls: executor instances run in
// parallel and share one device per executor.
type Device interface {
	// Name identifies the device in reports ("cpu", "sim0[GTX Titan ...]").
	Name() string
	// RunOp executes op prog.Ops[opIndex] over arena-backed views, returning
	// the modeled device time in microseconds — zero on an unmodeled device.
	// aux carries the op's second read operand (a training op's forward
	// activation or label vector) and is nil when the op declares none.
	// Alias reshapes never reach RunOp; the executor skips them.
	RunOp(prog *Program, opIndex int, in, out, aux *tensor.Tensor, scratch []float32) (modeledUS float64, err error)
	// TransferInUS models receiving bytes onto this device across the host
	// interconnect at a pipeline-stage boundary (zero on an unmodeled
	// device, and for the first stage, which is fed by the caller).
	TransferInUS(bytes int64) float64
}

// CPUDevice executes compiled ops directly on the host: layout transforms via
// tensor.ConvertInto, reshape copies via tensor.ReshapeInto and layer ops
// through the kernel the compiler bound (Op.Layer, Op.Alg) with the scratch it
// planned.  It is the executor's default device and the bit-equality baseline
// every other device is held to.
type CPUDevice struct{}

// Name implements Device.
func (CPUDevice) Name() string { return "cpu" }

// TransferInUS implements Device: host memory copies are not modeled.
func (CPUDevice) TransferInUS(int64) float64 { return 0 }

// RunOp implements Device.
func (CPUDevice) RunOp(prog *Program, opIndex int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	op := prog.Ops[opIndex]
	switch op.Kind {
	case OpTransform:
		if err := tensor.ConvertInto(in, out); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
	case OpReshape:
		if err := tensor.ReshapeInto(in, out); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
	case OpLayer, OpRecompute:
		if err := op.Layer.ForwardInto(in, out, op.Alg, scratch); err != nil {
			return 0, fmt.Errorf("layer %q: %w", op.Name, err)
		}
	case OpLossGrad:
		if err := runLossGrad(op, in, out, aux); err != nil {
			return 0, fmt.Errorf("%s: %w", op.Name, err)
		}
	case OpBackward:
		bl, ok := op.Layer.(layers.BackwardLayer)
		if !ok {
			return 0, fmt.Errorf("layer %q has no backward pass", op.Name)
		}
		if err := bl.BackwardDataInto(aux, in, out, scratch); err != nil {
			return 0, fmt.Errorf("backward %q: %w", op.Name, err)
		}
	case OpGradFilter:
		tl, ok := op.Layer.(layers.TrainableLayer)
		if !ok {
			return 0, fmt.Errorf("layer %q has no parameters", op.Name)
		}
		if err := tl.BackwardFilterInto(aux, in, out, scratch); err != nil {
			return 0, fmt.Errorf("grad-filter %q: %w", op.Name, err)
		}
	case OpSGD:
		tl, ok := op.Layer.(layers.TrainableLayer)
		if !ok {
			return 0, fmt.Errorf("layer %q has no parameters", op.Name)
		}
		if err := tl.ApplySGD(in, op.LR); err != nil {
			return 0, fmt.Errorf("sgd %q: %w", op.Name, err)
		}
	default:
		return 0, fmt.Errorf("unknown op kind %v", op.Kind)
	}
	return 0, nil
}

// runLossGrad executes the fused softmax + cross-entropy gradient: in is the
// probability matrix, aux the float32-coded labels, out the logit gradient.
// The training compiler lowers these buffers in the NCHW linearisation, where
// the N×C×1×1 backing slices are the row-major matrices themselves.
func runLossGrad(op Op, in, out, aux *tensor.Tensor) error {
	if in.Layout != tensor.NCHW || out.Layout != tensor.NCHW {
		return fmt.Errorf("loss gradient requires NCHW probability buffers, got %v/%v", in.Layout, out.Layout)
	}
	if aux == nil {
		return fmt.Errorf("loss gradient has no label buffer")
	}
	cfg := kernels.SoftmaxConfig{N: in.Shape.N, Classes: in.Shape.C}
	return kernels.SoftmaxCrossEntropyBackwardFloatInto(out.Data, in.Data, aux.Data, cfg)
}

// InterconnectGBs is the modeled host-interconnect bandwidth for cross-device
// transfers: a PCIe 3.0 x16 link at its practical ~12 GB/s.
const InterconnectGBs = 12.0

// SimDevice wraps a gpusim hardware model around the CPU execution path:
// every op computes its real result on the host (so sharded programs stay
// bit-identical to unsharded ones) while the op is also priced on the modeled
// GPU — layer ops through their Cost kernel sequence and the roofline +
// occupancy estimator, data-movement ops as streaming copies, stage-boundary
// transfers over the host interconnect.
type SimDevice struct {
	// Label distinguishes devices of the same hardware model ("sim0").
	Label string
	// HW is the modeled hardware.
	HW *gpusim.Device

	cpu CPUDevice

	// costCache holds the per-program op prices as a copy-on-write map: the
	// model is pure in (program, op), so each program is priced once (under
	// costMu) and published atomically, leaving steady-state RunOp lookups
	// lock- and allocation-free for concurrent executor instances.
	costMu    sync.Mutex
	costCache atomic.Pointer[map[*Program][]float64]
}

// NewSimDevice builds a simulated device over a gpusim hardware model.
func NewSimDevice(label string, hw *gpusim.Device) *SimDevice {
	return &SimDevice{Label: label, HW: hw}
}

// SimDevices builds n simulated devices ("sim0".."simN-1") over one gpusim
// hardware model — the device set a homogeneous sharded pipeline runs on.
func SimDevices(n int, hw *gpusim.Device) []Device {
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = NewSimDevice(fmt.Sprintf("sim%d", i), hw)
	}
	return devs
}

// Name implements Device.
func (d *SimDevice) Name() string {
	return fmt.Sprintf("%s[%s]", d.Label, d.HW.Name)
}

// RunOp implements Device: the op runs on the CPU for its real result and is
// priced on the hardware model (from the per-program cache, so the Cost
// sequence is evaluated once per op, not once per batch).
func (d *SimDevice) RunOp(prog *Program, opIndex int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	_, err := d.cpu.RunOp(prog, opIndex, in, out, aux, scratch)
	return d.programCosts(prog)[opIndex], err
}

// programCosts returns the cached per-op prices for a program, computing and
// publishing them on first use.
func (d *SimDevice) programCosts(prog *Program) []float64 {
	if cache := d.costCache.Load(); cache != nil {
		if costs, ok := (*cache)[prog]; ok {
			return costs
		}
	}
	d.costMu.Lock()
	defer d.costMu.Unlock()
	old := d.costCache.Load()
	if old != nil {
		if costs, ok := (*old)[prog]; ok {
			return costs
		}
	}
	costs := make([]float64, len(prog.Ops))
	for i, op := range prog.Ops {
		costs[i] = d.ModelOpUS(prog, op)
	}
	next := make(map[*Program][]float64, 1)
	if old != nil {
		for p, c := range *old {
			next[p] = c
		}
	}
	next[prog] = costs
	d.costCache.Store(&next)
	return costs
}

// Link returns the modeled host interconnect the device's transfers ride on.
// Overlapping transfers contend for it: the replica scheduler prices its batch
// scatter with Interconnect.ScatterUS, dividing the link bandwidth among the
// replicas it feeds at once.
func (d *SimDevice) Link() gpusim.Interconnect {
	return gpusim.Interconnect{GBs: InterconnectGBs}
}

// TransferInUS implements Device: bytes over the (uncontended) host
// interconnect plus one launch overhead for the receiving copy kernel.
// Pipeline-stage transfers use this lone-transfer price — the stages of one
// batch hand off serially, so their transfers do not overlap.
func (d *SimDevice) TransferInUS(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	return d.Link().TransferUS(bytes) + d.HW.LaunchOverheadUS
}

// ModelOpUS prices one op on the hardware model without executing it.  Layer
// ops go through the layer's Cost kernel sequence (with the compiled
// convolution algorithm mapped onto the matching cost implementation) and
// gpusim's roofline estimator; transform and reshape-copy ops are priced as
// streaming read+write passes; alias reshapes are free.
func (d *SimDevice) ModelOpUS(prog *Program, op Op) float64 {
	switch op.Kind {
	case OpLayer, OpRecompute:
		layout := prog.Buffers[op.In].Layout
		stats, err := op.Layer.Cost(d.HW, layout, costOptionsFor(op, layout))
		if err != nil {
			// No kernel model for this layout/impl combination: fall back to
			// pricing the op as a streaming pass over its operands.
			return d.streamUS(prog.Buffers[op.In].Bytes() + prog.Buffers[op.Out].Bytes())
		}
		total, _ := gpusim.EstimateSequence(d.HW, stats)
		return total
	case OpTransform, OpReshape:
		if prog.Buffers[op.Out].AliasOf != NoBuffer {
			return 0
		}
		return d.streamUS(prog.Buffers[op.In].Bytes() + prog.Buffers[op.Out].Bytes())
	case OpLossGrad:
		shape := prog.Buffers[op.In].Shape
		cfg := kernels.SoftmaxConfig{N: shape.N, Classes: shape.C}
		total, _ := gpusim.EstimateSequence(d.HW, []gpusim.KernelStats{
			kernels.SoftmaxBackwardCost(d.HW, cfg, true),
		})
		return total
	case OpBackward, OpGradFilter:
		if stats := trainingOpCost(d.HW, prog, op); stats != nil {
			total, _ := gpusim.EstimateSequence(d.HW, stats)
			return total
		}
		// Element-wise and window backward passes (ReLU, LRN) are bandwidth
		// bound: stream the gradient, the forward activation and the result.
		bytes := prog.Buffers[op.In].Bytes() + prog.Buffers[op.Out].Bytes()
		if op.Aux != NoBuffer {
			bytes += prog.Buffers[op.Aux].Bytes()
		}
		return d.streamUS(bytes)
	case OpSGD:
		// Read the gradient and the parameters, write the parameters back.
		return d.streamUS(3 * prog.Buffers[op.In].Bytes())
	default:
		return 0
	}
}

// trainingOpCost maps a backward or grad-filter op onto the kernels package's
// training cost models — the same models bench.TrainingStep prices whole
// layers with.  It returns nil for layers priced as pure streaming passes.
func trainingOpCost(hw *gpusim.Device, prog *Program, op Op) []gpusim.KernelStats {
	layout := prog.Buffers[op.In].Layout
	switch l := op.Layer.(type) {
	case *layers.Conv:
		// A convolution's gradients run on GEMM whatever its forward runs:
		// Wᵀ·dY then col2im, and dY·col(X)ᵀ.
		if op.Kind == OpGradFilter {
			return kernels.ConvBackwardFilterCost(hw, l.Cfg)
		}
		return kernels.ConvBackwardDataNCHWCost(hw, l.Cfg)
	case *layers.Pool:
		if op.Kind == OpBackward {
			return []gpusim.KernelStats{kernels.PoolBackwardCost(hw, l.Cfg, layout == tensor.CHWN)}
		}
	case *layers.FullyConnected:
		// Both directions are GEMMs over the weight matrix: dIn = dOut·W and
		// dW = dOutᵀ·In.
		g := kernels.GemmCostConfig{M: l.InDim, N: l.Batch, K: l.OutDim}
		if op.Kind == OpGradFilter {
			g = kernels.GemmCostConfig{M: l.OutDim, N: l.InDim, K: l.Batch}
		}
		s := kernels.GemmCost(hw, g)
		s.Name = fmt.Sprintf("fc-bwd %s", op.Name)
		return []gpusim.KernelStats{s}
	}
	return nil
}

// ModelProgramUS prices a whole program: the sum of its op estimates, each op
// paying its own launch overhead (the kernels run back to back).
func (d *SimDevice) ModelProgramUS(prog *Program) float64 {
	var total float64
	for _, op := range prog.Ops {
		total += d.ModelOpUS(prog, op)
	}
	return total
}

// streamUS prices moving the given DRAM traffic at device bandwidth, plus one
// kernel launch.
func (d *SimDevice) streamUS(bytes int64) float64 {
	return float64(bytes)/d.HW.PeakBytesPerSec()*1e6 + d.HW.LaunchOverheadUS
}

// costOptionsFor maps an op's compiled convolution algorithm onto the cost
// model's implementation options, so modeled time prices the kernel the
// executor actually runs.
func costOptionsFor(op Op, layout tensor.Layout) layers.CostOptions {
	opts := layers.CostOptions{}
	if op.Alg == kernels.ConvAlgGemm && layout == tensor.NCHW {
		opts.Conv = layers.ConvGemmImpl
	}
	if op.Alg == kernels.ConvAlgFFT && layout == tensor.NCHW {
		opts.Conv = layers.ConvFFTImpl
	}
	return opts
}
