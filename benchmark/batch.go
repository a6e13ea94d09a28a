package main

import (
	"fmt"
	"time"

	"memcnn/internal/network"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// ringBatches is how many distinct input batches a batch workload cycles.
const ringBatches = 4

// batchWorkload runs Executor.RunInto on whole batches, back to back.
type batchWorkload struct {
	buildNet func() (*network.Network, error)
	// inputs makes the ring of input batches from the seed.
	inputs func(seed uint64, shape tensor.Shape) []*tensor.Tensor
	// references returns the reference output of each ring batch.
	references func(w *batchWorkload) ([]*tensor.Tensor, error)
	seed       uint64

	compiled
	exec    *memruntime.Executor
	ring    []*tensor.Tensor
	out     *tensor.Tensor
	coldRun time.Duration
	runs    int // runs started so far: picks the ring slot and the span's run id

	// Every run's output is kept, with the ring slot it answers, until verify.
	// The storage is reserved up front so that the timed loop allocates nothing.
	outSlots []int
	outData  []float32

	// naiveMS holds the wall time of each naive reference forward, when the
	// references are computed live.
	naiveMS []float64

	// The traced executor and its device, built for the tracer of the first
	// traced measure call and kept for the following ones.
	tracedExec *memruntime.Executor
	tracedDev  *tracedDevice
}

func newBatchLeNet(seed uint64) workload {
	return &batchWorkload{
		seed:     seed,
		buildNet: workloads.LeNet,
		inputs: func(seed uint64, shape tensor.Shape) []*tensor.Tensor {
			return randomBatches(shape, ringBatches, stream(seed, 1), 1.0/1024)
		},
		references: func(w *batchWorkload) ([]*tensor.Tensor, error) {
			refs := make([]*tensor.Tensor, len(w.ring))
			for i, in := range w.ring {
				t0 := time.Now()
				ref, err := w.net.Forward(in)
				if err != nil {
					return nil, err
				}
				w.naiveMS = append(w.naiveMS, ms(time.Since(t0)))
				refs[i] = ref
			}
			return refs, nil
		},
	}
}

func newBatchAlexNet(seed uint64) workload {
	// picks[b][i] is the pool image in slot i of ring batch b.
	var picks [][]int
	return &batchWorkload{
		seed:     seed,
		buildNet: func() (*network.Network, error) { return workloads.AlexNetWithBatch(alexBatch) },
		inputs: func(seed uint64, _ tensor.Shape) []*tensor.Tensor {
			pool := make([]*tensor.Tensor, alexPoolImages)
			for i := range pool {
				pool[i] = alexPoolImage(i)
			}
			r := stream(seed, 1)
			ring := make([]*tensor.Tensor, ringBatches)
			picks = make([][]int, ringBatches)
			for b := range ring {
				images := make([]*tensor.Tensor, alexBatch)
				picks[b] = make([]int, alexBatch)
				for i := range images {
					picks[b][i] = r.intn(alexPoolImages)
					images[i] = pool[picks[b][i]]
				}
				ring[b] = stackImages(images)
			}
			return ring
		},
		references: func(w *batchWorkload) ([]*tensor.Tensor, error) {
			rows, err := parseGolden(goldenAlexNet)
			if err != nil {
				return nil, err
			}
			refs := make([]*tensor.Tensor, len(picks))
			for b, pick := range picks {
				refs[b] = tensor.New(w.prog.OutputShape(), tensor.NCHW)
				per := len(rows[0])
				for i, p := range pick {
					copy(refs[b].Data[i*per:(i+1)*per], rows[p])
				}
			}
			return refs, nil
		},
	}
}

func (w *batchWorkload) program() *memruntime.Program { return w.prog }

func (w *batchWorkload) setup() (time.Duration, error) {
	began := time.Now()
	net, err := w.buildNet()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	w.ring = w.inputs(w.seed, net.InputShape())
	harness := time.Since(t0)

	if w.compiled, err = compileNet(net); err != nil {
		return 0, err
	}
	w.exec = memruntime.NewExecutor(w.prog)
	w.out = tensor.New(w.prog.OutputShape(), tensor.NCHW)
	w.outData = make([]float32, 0, reservedOps*len(w.out.Data))
	w.outSlots = make([]int, 0, reservedOps)

	t0 = time.Now()
	if err := w.exec.RunInto(w.ring[0], w.out); err != nil {
		return 0, fmt.Errorf("cold run: %w", err)
	}
	w.coldRun = time.Since(t0)
	took := time.Since(began) - harness
	w.keepOutput(0)
	w.runs = 1
	return took, nil
}

// keepOutput stores the output just produced for the given ring slot.
func (w *batchWorkload) keepOutput(slot int) {
	w.outSlots = append(w.outSlots, slot)
	w.outData = append(w.outData, w.out.Data...)
}

func (w *batchWorkload) measure(d time.Duration, tr *tracer, hp *hostProbe) (timing, error) {
	exec := w.exec
	if tr != nil && w.tracedExec == nil {
		w.tracedDev = newTracedDevice(tr, 1, w.prog)
		w.tracedExec = memruntime.NewExecutorOn(w.prog, w.tracedDev)
		// The traced executor has its own arena pool; fill it off the clock.
		if err := w.tracedExec.RunInto(w.ring[0], w.out); err != nil {
			return timing{}, err
		}
	}
	if tr != nil {
		exec = w.tracedExec
	}
	t := timing{latMS: make([]float64, 0, reservedOps)}
	batch := w.prog.InputShape().N
	allocs := startAllocs()
	start := time.Now()
	var probes []float64
	if hp != nil {
		probes = append(make([]float64, 0, reservedOps+1), hp.run())
	}
	for time.Since(start) < d {
		slot := w.runs % len(w.ring)
		run := int64(w.runs)
		w.runs++
		var id int64
		var t0 time.Duration
		if tr != nil {
			id, t0 = tr.begin()
			w.tracedDev.under(id, run)
		}
		begin := time.Now()
		err := exec.RunInto(w.ring[slot], w.out)
		took := time.Since(begin)
		t.latMS = append(t.latMS, ms(took))
		t.wall += took
		if tr != nil {
			tr.end(span{ID: id, Req: run, Cat: catRun, Name: fmt.Sprintf("run %d", run), Start: t0})
		}
		if hp != nil {
			probes = append(probes, hp.run())
		}
		t.attempted++
		if err != nil {
			t.failed++
			fmt.Printf("run %d failed: %v\n", run, err)
			continue
		}
		t.images += batch
		w.keepOutput(slot)
	}
	t.allocs, t.allocBytes = allocs.perOp(t.attempted)
	if hp != nil {
		t.hostCorrect(probes)
	}
	return t, nil
}

func (w *batchWorkload) verify() (int, error) {
	refs, err := w.references(w)
	if err != nil {
		return 0, fmt.Errorf("computing references: %w", err)
	}
	missed := 0
	per := len(w.out.Data)
	for i, slot := range w.outSlots {
		got, err := tensor.NewFrom(w.out.Shape, tensor.NCHW, w.outData[i*per:(i+1)*per])
		if err != nil {
			return 0, err
		}
		if !closeTo(got, refs[slot]) {
			missed++
			fmt.Printf("output %d (ring batch %d) misses its reference\n", i, slot)
		}
	}
	return missed, nil
}

func (w *batchWorkload) layers(m metrics, d time.Duration) ([]span, timing, error) {
	// A quarter of the time untraced, a quarter traced, the rest for the
	// stand-alone passes below.
	tr := newTracer()
	bare, traced, err := alternate(w, d/4, d/4, tr)
	if err != nil {
		return nil, timing{}, err
	}
	spans := tr.snapshot()
	if err := programMetrics(m, w.compiled); err != nil {
		return nil, timing{}, err
	}
	shareMetrics(m, attribute(spans, catRun))
	m["executor.run_ms"] = bare.medianMS()
	m["executor.cold_run_ms"] = ms(w.coldRun)
	m["executor.allocs_per_run"] = bare.allocs
	m["executor.alloc_bytes_per_run"] = bare.allocBytes
	m["trace.overhead_frac"] = traced.medianMS()/bare.medianMS() - 1

	runs := len(bare.latMS) / 4
	if runs < 1 {
		runs = 1
	}
	in := w.ring[0]
	if err := instrumentMetrics(m, w.exec, in, w.out, runs); err != nil {
		return nil, timing{}, err
	}
	if err := engineMetrics(m, w.prog, in, w.out, runs, bare.medianMS()); err != nil {
		return nil, timing{}, err
	}
	if err := regretMetrics(m, w.prog); err != nil {
		return nil, timing{}, err
	}
	if err := standaloneMetrics(m); err != nil {
		return nil, timing{}, err
	}

	return spans, bare.joined(traced), nil
}

// referenceMetrics adds Network.Forward's time over the planned run's, the
// program level's stated reference, where verify ran the naive forward.
func (w *batchWorkload) referenceMetrics(m metrics) {
	if len(w.naiveMS) > 0 && m["executor.run_ms"] > 0 {
		m["executor.naive_ratio"] = median(w.naiveMS) / m["executor.run_ms"]
	}
}
