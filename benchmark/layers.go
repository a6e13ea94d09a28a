package main

import (
	"fmt"
	"time"

	"memcnn/internal/fft"
	"memcnn/internal/kernels"
	"memcnn/internal/layers"
	"memcnn/internal/obs"
	memruntime "memcnn/internal/runtime"
	"memcnn/internal/runtime/replica"
	"memcnn/internal/tensor"
)

// Per-layer metrics are named after the module whose work they measure.
// Every traced run reports every one of them; a metric that does not apply
// to a workload (server.* on a batch workload) reads 0.

// programMetrics reports planning, compilation and the static memory plan.
func programMetrics(m metrics, c compiled) error {
	p := c.prog
	m["plan.time_ms"] = ms(c.planTime)
	m["compile.time_ms"] = ms(c.compileTime)
	t0 := time.Now()
	if err := memruntime.VerifyProgram(p); err != nil {
		return err
	}
	m["compile.verify_ms"] = ms(time.Since(t0))
	m["compile.ops"] = float64(len(p.Ops))
	m["compile.buffers"] = float64(len(p.Buffers))
	m["memplan.peak_bytes"] = float64(p.Mem.PeakBytes())
	m["memplan.naive_bytes"] = float64(p.NaiveBytes())
	m["memplan.saved_frac"] = p.Savings()
	m["memplan.scratch_bytes"] = float64(p.ScratchBytes())
	selectionMetrics(m, p)
	return nil
}

// selectionMetrics counts what the selector chose.
func selectionMetrics(m metrics, p *memruntime.Program) {
	for _, op := range p.Ops {
		switch {
		case op.Kind == memruntime.OpTransform:
			m["select.transform_ops"]++
		case op.Kind == memruntime.OpLayer:
			if _, ok := op.Layer.(*layers.Conv); ok {
				m["select."+describeOp(p, op).class+"_layers"]++
			}
		}
	}
}

// shareMetrics turns a traced run's attribution into the kernels.*, layers.*
// and tensor.* shares and rates, and the executor's own share.
func shareMetrics(m metrics, a attribution) {
	for _, class := range []string{classDirect, classGemm, classFFT} {
		m["kernels."+class+"_share"] = a.share(a.byClass[class])
		m["kernels."+class+"_gflops"] = rate(a.flops[class], a.byClass[class])
	}
	m["kernels.pool_share"] = a.share(a.byClass[classPool])
	m["kernels.pool_gbs"] = rate(a.bytes[classPool], a.byClass[classPool])
	m["kernels.softmax_share"] = a.share(a.byClass[classSoftmax])
	m["kernels.backward_data_share"] = a.share(a.byClass[classBackwardData])
	m["kernels.backward_filter_share"] = a.share(a.byClass[classBackwardFilter])
	m["layers.fc_share"] = a.share(a.byClass[classFC])
	m["layers.lrn_share"] = a.share(a.byClass[classLRN])
	m["layers.relu_share"] = a.share(a.byClass[classReLU])
	// Input and output staging happens inside the run but outside every op,
	// so from out here it is part of the run's self time.
	m["tensor.transform_share"] = a.share(a.byClass[classTransform] + a.self)
	m["executor.self_share"] = a.share(a.self)
	m["trace.op_coverage_frac"] = 1 - a.share(a.self)
}

// runner is anything that runs one batch into an output tensor.
type runner interface {
	RunInto(in, dst *tensor.Tensor) error
}

// timeRuns returns the median wall time of n runs in milliseconds, after one
// untimed run that fills the runner's arenas if it is cold.
func timeRuns(r runner, in, out *tensor.Tensor, n int, cold bool) (float64, error) {
	if cold {
		if err := r.RunInto(in, out); err != nil {
			return 0, err
		}
	}
	lat := make([]float64, n)
	for i := range lat {
		t0 := time.Now()
		if err := r.RunInto(in, out); err != nil {
			return 0, err
		}
		lat[i] = ms(time.Since(t0))
	}
	return median(lat), nil
}

// instrumentMetrics reports what Executor.Instrument with a trace recorder and
// a metrics registry costs: the same executor runs the same batch bare and
// instrumented by turns, so that the host's drift falls on both alike.  The
// executor must have run before.
func instrumentMetrics(m metrics, exec *memruntime.Executor, in, out *tensor.Tensor, pairs int) error {
	ob := memruntime.Observer{Trace: obs.NewRecorder(0), Metrics: obs.NewRegistry()}
	defer exec.Instrument(memruntime.Observer{}, memruntime.LaneEngine)
	var bare, instrumented []float64
	for i := 0; i < 2*pairs; i++ {
		lat := &bare
		if i%2 == 1 {
			lat = &instrumented
			exec.Instrument(ob, memruntime.LaneEngine)
		} else {
			exec.Instrument(memruntime.Observer{}, memruntime.LaneEngine)
		}
		t0 := time.Now()
		if err := exec.RunInto(in, out); err != nil {
			return fmt.Errorf("instrumented runs: %w", err)
		}
		*lat = append(*lat, ms(time.Since(t0)))
	}
	m["obs.instrument_overhead_frac"] = median(instrumented)/median(bare) - 1
	return nil
}

// engineMetrics runs the program through the two parallel engines — two
// pipeline stages and two CPU replicas — one batch at a time, against the
// single executor's bareMS.
func engineMetrics(m metrics, prog *memruntime.Program, in, out *tensor.Tensor, runs int, bareMS float64) error {
	sp, err := memruntime.Shard(prog, 2, memruntime.ShardOptions{})
	if err != nil {
		return fmt.Errorf("sharding: %w", err)
	}
	pe := memruntime.NewPipelineExecutor(sp)
	defer pe.Close()
	pipelined, err := timeRuns(pe, in, out, runs, true)
	if err != nil {
		return fmt.Errorf("pipelined runs: %w", err)
	}
	m["pipeline.run_ms"] = pipelined
	m["pipeline.speedup"] = bareMS / pipelined

	fleet, err := replica.ParseDevices("cpu", 2, 1)
	if err != nil {
		return err
	}
	// Equal weights: deriving them would time two more full runs per replica.
	g, err := replica.NewGroup(prog, 2, replica.Config{Devices: fleet, Weights: []float64{1, 1}})
	if err != nil {
		return fmt.Errorf("replicating: %w", err)
	}
	defer g.Close()
	replicated, err := timeRuns(g, in, out, runs, true)
	if err != nil {
		return fmt.Errorf("replicated runs: %w", err)
	}
	m["replica.run_ms"] = replicated
	m["replica.speedup"] = bareMS / replicated
	return nil
}

// The regret pass leaves out a kernel that would take seconds on one layer:
// direct above regretDirectMaxFMAs multiply-adds (it runs at about 0.1 GFMA/s
// here), FFT when its workspace alone exceeds regretFFTMaxElems floats (64 MiB,
// several times the whole arena of any program the benchmark compiles; every
// AlexNet layer is over it, no LeNet or Cifar10 layer is).
const (
	regretDirectMaxFMAs = 1 << 27
	regretFFTMaxElems   = 1 << 24
)

// regretMetrics times the three public convolution kernels on the exact shape
// and chosen layout of every convolution layer of the program, and reports how
// far the selected algorithm is from the fastest of them.
func regretMetrics(m metrics, p *memruntime.Program) error {
	var regrets []float64
	for _, op := range p.Ops {
		conv, ok := op.Layer.(*layers.Conv)
		if !ok || op.Kind != memruntime.OpLayer {
			continue
		}
		cfg, lay := conv.Cfg, p.Buffers[op.In].Layout
		in := tensor.Random(cfg.InputShape(), lay, 1)
		filters := tensor.Filters(cfg.K, cfg.C, cfg.FH, cfg.FW, 2)
		out := tensor.New(cfg.OutputShape(), lay)
		packed, err := kernels.PackConvFilters(filters, cfg)
		if err != nil {
			return fmt.Errorf("regret %s: %w", op.Name, err)
		}

		times := map[kernels.ConvAlgorithm]time.Duration{}
		if cfg.FLOPs()/2 <= regretDirectMaxFMAs {
			times[kernels.ConvAlgDirect], err = timeKernel(func() error {
				return kernels.ConvDirectInto(in, filters, out, cfg)
			})
			if err != nil {
				return fmt.Errorf("regret %s direct: %w", op.Name, err)
			}
		} else {
			m["select.direct_skipped"]++
		}
		scratch := make([]float32, kernels.ConvGemmWorkspaceElems(cfg, lay))
		times[kernels.ConvAlgGemm], err = timeKernel(func() error {
			return kernels.ConvIm2colGemmInto(in, packed, out, cfg, scratch)
		})
		if err != nil {
			return fmt.Errorf("regret %s gemm: %w", op.Name, err)
		}
		if elems := kernels.ConvFFTWorkspaceElems(cfg); elems <= regretFFTMaxElems {
			scratch = make([]float32, elems)
			times[kernels.ConvAlgFFT], err = timeKernel(func() error {
				return kernels.ConvFFTInto(in, filters, out, cfg, scratch)
			})
			if err != nil {
				return fmt.Errorf("regret %s fft: %w", op.Name, err)
			}
		} else {
			m["select.fft_skipped"]++
		}

		selected, timed := times[op.Alg]
		if !timed {
			continue // the selected kernel is one the pass leaves out
		}
		best := selected
		for _, t := range times {
			if t < best {
				best = t
			}
		}
		regrets = append(regrets, float64(selected)/float64(best))
	}
	m["select.regret_max"] = percentile(regrets, 1)
	m["select.regret_geomean"] = geomean(regrets)
	return nil
}

// timeKernel times one call of a kernel, and two more if the first took under
// a quarter of a second, and returns the shortest: a single timing of a
// kernel that runs for milliseconds is mostly noise.
func timeKernel(f func() error) (time.Duration, error) {
	var best time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		if i == 0 || d < best {
			best = d
		}
		if best >= 250*time.Millisecond {
			break
		}
	}
	return best, nil
}

// standaloneMetrics times three kernels on fixed shapes, outside any network:
// the reference points the roadmap quotes.
func standaloneMetrics(m metrics) error {
	var failed error
	check := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	const n = 256
	a, b, c := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	for i := range a {
		a[i], b[i] = float32(i%7), float32(i%5)
	}
	best := bestOf(8, func() { check(kernels.GemmInto(a, b, c, n, n, n)) })
	m["kernels.gemm256_gflops"] = rate(2*n*n*n, best)

	const edge, planes = 32, 64
	re, im := make([]float32, edge*edge), make([]float32, edge*edge)
	for i := range re {
		re[i] = float32(i % 11)
	}
	best = bestOf(8, func() {
		for p := 0; p < planes; p++ {
			check(fft.Forward2DSplit(re, im, edge, edge))
			check(fft.Inverse2DSplit(re, im, edge, edge))
		}
	})
	// Points through a forward and an inverse transform, in millions per second.
	m["fft.split2d_mpts_s"] = rate(planes*edge*edge, best) * 1e3

	shape := tensor.Shape{N: 64, C: 32, H: 28, W: 28}
	nchw := tensor.Random(shape, tensor.NCHW, 3)
	chwn := tensor.New(shape, tensor.CHWN)
	best = bestOf(8, func() {
		check(tensor.ConvertInto(nchw, chwn))
		check(tensor.ConvertInto(chwn, nchw))
	})
	// Each conversion reads and writes the tensor once.
	m["tensor.convert_gbs"] = rate(4*float64(shape.Bytes()), best)
	return failed
}

// bestOf returns the shortest of n timings of f: the stand-alone kernels are
// quoted at their best, as a roofline reference is.
func bestOf(n int, f func()) time.Duration {
	var best time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}
