package main

import (
	"fmt"
	"math"
	"time"

	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/train"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

const (
	trainBatch   = 16
	trainBatches = 8 // distinct (images, labels) batches cycled
	// trainLR keeps the loss finite on uniform random inputs: at the default
	// 0.01 it is NaN within six steps.
	trainLR = 1e-4
	// naiveSteps is how many steps verify runs on the naive executor: the
	// first two are compared with the planned ones, the rest only timed.
	naiveSteps = 3
)

// trainWorkload runs train.Executor.Step, one step after another.
type trainWorkload struct {
	seed        uint64
	net         *network.Network
	tp          *train.Program
	exec        *train.Executor
	images      []*tensor.Tensor
	labels      [][]int
	compileTime time.Duration
	coldStep    time.Duration

	// losses holds every step's loss, in order, the cold step first.
	losses  []float64
	naiveMS []float64

	// The traced executor and its device, built for the tracer of the first
	// traced measure call and kept for the following ones.
	tracedExec *train.Executor
	tracedDev  *tracedDevice
}

func newTrainLeNet(seed uint64) workload { return &trainWorkload{seed: seed} }

func (w *trainWorkload) program() *memruntime.Program { return w.tp.Program }

// buildTrainer builds LeNet at the training batch and compiles its step.
// Every call makes its own network: SGD updates weights in place, so two
// trainers that are to be compared must not share layers.
func buildTrainer() (*network.Network, *train.Program, error) {
	net, err := workloads.LeNet()
	if err != nil {
		return nil, nil, err
	}
	if net, err = net.WithBatch(trainBatch); err != nil {
		return nil, nil, err
	}
	tp, err := train.CompileTraining(net, train.Options{Verify: true, SGD: train.SGD{LR: trainLR}})
	if err != nil {
		return nil, nil, fmt.Errorf("compiling the training step: %w", err)
	}
	return net, tp, nil
}

func (w *trainWorkload) setup() (time.Duration, error) {
	began := time.Now()
	t0 := began
	var err error
	if w.net, w.tp, err = buildTrainer(); err != nil {
		return 0, err
	}
	w.compileTime = time.Since(t0)

	t0 = time.Now()
	w.images = randomBatches(w.net.InputShape(), trainBatches, stream(w.seed, 1), 1)
	w.labels = randomLabels(trainBatch, w.tp.Classes, trainBatches, stream(w.seed, 2))
	harness := time.Since(t0)
	w.losses = make([]float64, 0, reservedOps)

	if w.exec, err = train.NewExecutor(w.tp); err != nil {
		return 0, err
	}
	t0 = time.Now()
	st, err := w.exec.Step(w.images[0], w.labels[0])
	if err != nil {
		return 0, fmt.Errorf("cold step: %w", err)
	}
	w.coldStep = time.Since(t0)
	w.losses = append(w.losses, st.Loss)
	return time.Since(began) - harness, nil
}

func (w *trainWorkload) measure(d time.Duration, tr *tracer, hp *hostProbe) (timing, error) {
	exec := w.exec
	if tr != nil && w.tracedExec == nil {
		w.tracedDev = newTracedDevice(tr, 1, w.tp.Program)
		var err error
		if w.tracedExec, err = train.NewExecutorOn(w.tp, w.tracedDev); err != nil {
			return timing{}, err
		}
	}
	if tr != nil {
		exec = w.tracedExec
	}
	t := timing{latMS: make([]float64, 0, reservedOps)}
	allocs := startAllocs()
	start := time.Now()
	var probes []float64
	if hp != nil {
		probes = append(make([]float64, 0, reservedOps+1), hp.run())
	}
	for time.Since(start) < d {
		step := int64(len(w.losses))
		b := len(w.losses) % trainBatches
		var id int64
		var t0 time.Duration
		if tr != nil {
			id, t0 = tr.begin()
			w.tracedDev.under(id, step)
		}
		begin := time.Now()
		st, err := exec.Step(w.images[b], w.labels[b])
		took := time.Since(begin)
		t.latMS = append(t.latMS, ms(took))
		t.wall += took
		if tr != nil {
			tr.end(span{ID: id, Req: step, Cat: catStep, Name: fmt.Sprintf("step %d", step), Start: t0})
		}
		if hp != nil {
			probes = append(probes, hp.run())
		}
		t.attempted++
		w.losses = append(w.losses, st.Loss)
		switch {
		case err != nil:
			t.failed++
			fmt.Printf("step %d failed: %v\n", step, err)
		case math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0):
			t.failed++
			fmt.Printf("step %d: loss is %v\n", step, st.Loss)
		default:
			t.images += trainBatch
		}
	}
	t.allocs, t.allocBytes = allocs.perOp(t.attempted)
	if hp != nil {
		t.hostCorrect(probes)
	}
	return t, nil
}

// verify holds training to three things.  The first two planned steps must
// give bit for bit the losses of the naive executor on a network of its own,
// and the second loss depends on every weight the first step wrote.  The loss
// must fall: its mean over the last cycle of the batches below its mean over
// the first.  A loss that is not finite was already counted by measure.
func (w *trainWorkload) verify() (int, error) {
	missed := 0
	_, tp, err := buildTrainer()
	if err != nil {
		return 0, err
	}
	naive, err := train.NewNaiveExecutor(tp, memruntime.CPUDevice{})
	if err != nil {
		return 0, err
	}
	w.naiveMS = w.naiveMS[:0]
	for i := 0; i < naiveSteps && i < len(w.losses); i++ {
		b := i % trainBatches
		t0 := time.Now()
		st, err := naive.Step(w.images[b], w.labels[b])
		if err != nil {
			return 0, fmt.Errorf("naive step %d: %w", i, err)
		}
		if i >= 2 {
			w.naiveMS = append(w.naiveMS, ms(time.Since(t0)))
		} else if math.Float64bits(st.Loss) != math.Float64bits(w.losses[i]) {
			missed++
			fmt.Printf("step %d: planned loss %v, naive loss %v\n", i, w.losses[i], st.Loss)
		}
	}
	// Every batch has a loss level of its own, so whole cycles are compared,
	// the first with the fourth or a later one: over fewer the fall is within
	// the noise.  Beside the host probe a timed region on a busy host ends
	// after about 23 steps, so training goes on here, untimed, until four
	// cycles have run.
	for len(w.losses) < 4*trainBatches {
		b := len(w.losses) % trainBatches
		st, err := w.exec.Step(w.images[b], w.labels[b])
		if err != nil {
			return 0, fmt.Errorf("step %d: %w", len(w.losses), err)
		}
		w.losses = append(w.losses, st.Loss)
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) {
			missed++
			fmt.Printf("step %d: loss is %v\n", len(w.losses)-1, st.Loss)
		}
	}
	n := len(w.losses)
	first, last := mean(w.losses[:trainBatches]), mean(w.losses[n-trainBatches:])
	fmt.Printf("loss over %d steps: first cycle of %d batches %.4f, last %.4f\n", n, trainBatches, first, last)
	if !(last < first) {
		missed++
		fmt.Printf("the loss did not fall\n")
	}
	return missed, nil
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func (w *trainWorkload) layers(m metrics, d time.Duration) ([]span, timing, error) {
	tr := newTracer()
	bare, traced, err := alternate(w, 4*d/10, 4*d/10, tr)
	if err != nil {
		return nil, timing{}, err
	}
	spans := tr.snapshot()
	a := attribute(spans, catStep)
	// A training step is compiled in one call, with no planner before it.
	if err := programMetrics(m, compiled{prog: w.tp.Program, compileTime: w.compileTime}); err != nil {
		return nil, timing{}, err
	}
	shareMetrics(m, a)
	m["trace.overhead_frac"] = traced.medianMS()/bare.medianMS() - 1
	m["train.compile_ms"] = ms(w.compileTime)
	m["train.step_ms"] = bare.medianMS()
	m["train.fwd_share"] = a.share(a.byKind[memruntime.OpLayer.String()])
	m["train.recompute_share"] = a.share(a.byKind[memruntime.OpRecompute.String()])
	m["train.sgd_share"] = a.share(a.byKind[memruntime.OpSGD.String()])
	m["train.recompute_ops"] = float64(w.tp.RecomputeOps)
	m["train.peak_bytes"] = float64(w.tp.Mem.PeakBytes())
	m["train.store_peak_bytes"] = float64(w.tp.StorePeakBytes)
	m["train.allocs_per_step"] = bare.allocs
	if err := regretMetrics(m, w.tp.Program); err != nil {
		return nil, timing{}, err
	}
	if err := standaloneMetrics(m); err != nil {
		return nil, timing{}, err
	}

	return spans, bare.joined(traced), nil
}

// referenceMetrics adds the naive executor's step time over the planned one's.
func (w *trainWorkload) referenceMetrics(m metrics) {
	if len(w.naiveMS) > 0 && m["train.step_ms"] > 0 {
		m["train.naive_ratio"] = median(w.naiveMS) / m["train.step_ms"]
	}
}
