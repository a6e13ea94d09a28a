package main

import (
	"fmt"
	goruntime "runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed is not the
// program's to decide: every few seconds the host changes between two states,
// in one of which arithmetic-bound code takes 1.65 times as long, and the
// share of each drifts over minutes, so that every statistic of a run moves
// with it, however long the run (README.md, "The host-speed probe", has the
// measurements).  A reference computation that never changes, run between the
// operations, sees the same states.  An end-to-end timing is therefore
// reported as
//
//	wall time × probeNominalMS ÷ (the probe's time around the operation)
//
// which is the time the operation would have taken had the host run the probe
// at its nominal speed.  The raw wall figures are printed beside every
// corrected one, set-up time and every per-layer metric are raw wall time, and
// the probe's own reading is the per-layer metric host.probe_ms.

const (
	// The probe has two phases, each on GOMAXPROCS goroutines at once, as the
	// kernels under test run: independent multiply-add and integer chains over
	// a buffer that stays in L1, which slow down when a neighbour takes
	// execution ports of the same core, and the same arithmetic over loads a
	// cache line apart in a buffer four times a core's L2, which slow down
	// when neighbours fill the shared cache and the memory bus.  The iteration
	// counts make the two phases' slow-downs add up to about what the
	// workloads' own are.
	probeALUIters = 12_000_000
	probeMemIters = 7_200_000
	probeFloats   = 2 << 20 // per goroutine: 8 MiB
	probeL1Floats = 4 << 10

	// probeNominalMS is a round figure just under what one probe takes on
	// this host at its quietest: over the five hours in which this was written
	// a run's median reading lay between 113 and 199 ms, mostly near 150.  It
	// only sets the scale of the corrected figures; both sides of a comparison
	// use the same value.
	probeNominalMS = 100.0
)

// hostProbe is the reference computation and the memory it runs over.  The
// memory is mapped outside the Go heap, so that it moves neither the garbage
// collector's pacing of the program under test nor its allocation counts, and
// is resident from the start, so that peak_rss_mib can leave it out exactly.
type hostProbe struct {
	mapped []byte
	bufs   [][]float32
	sums   []float64 // one per goroutine, a cache line apart
}

func newHostProbe() (*hostProbe, error) {
	workers := goruntime.GOMAXPROCS(0)
	mapped, err := syscall.Mmap(-1, 0, 4*probeFloats*workers, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host probe's memory: %w", err)
	}
	p := &hostProbe{mapped: mapped, sums: make([]float64, 8*workers)}
	all := unsafe.Slice((*float32)(unsafe.Pointer(&mapped[0])), probeFloats*workers)
	for i := range all {
		all[i] = float32(i%17) * 0.01
	}
	for g := 0; g < workers; g++ {
		p.bufs = append(p.bufs, all[g*probeFloats:(g+1)*probeFloats])
	}
	p.run() // the first pass pays for the goroutines' stacks
	return p, nil
}

// residentMiB is the probe's part of the process's resident set.
func (p *hostProbe) residentMiB() float64 { return float64(len(p.mapped)) / (1 << 20) }

// run executes the reference computation once and returns its wall time in
// milliseconds.
func (p *hostProbe) run() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for g, buf := range p.bufs {
		wg.Add(1)
		go func(g int, buf []float32) {
			defer wg.Done()
			p.sums[8*g] = probeKernel(buf[:probeL1Floats], 4, probeALUIters) + probeKernel(buf, 64, probeMemIters)
		}(g, buf)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// probeKernel runs four float multiply-add chains and an integer chain, none
// depending on another, over loads step floats apart.
func probeKernel(buf []float32, step, iters int) float64 {
	var a0, a1, a2, a3 float32
	var i0, i1 uint64 = 1, 2
	q := step / 4
	n := len(buf) - step
	idx := 0
	for i := 0; i < iters; i++ {
		a0 += buf[idx] * 1.0001
		a1 += buf[idx+q] * 0.9999
		a2 += buf[idx+2*q] * 1.0002
		a3 += buf[idx+3*q] * 0.9998
		i0 = i0*6364136223846793005 + 1442695040888963407
		i1 ^= i0 >> 7
		idx += step
		if idx >= n {
			idx = (idx + 1) & 15
		}
	}
	return float64(a0+a1+a2+a3) + float64(i1&0xff)
}

// hostFactor is what a wall time measured between two probe readings is
// multiplied by.
func hostFactor(before, after float64) float64 {
	return probeNominalMS / ((before + after) / 2)
}

// reading is the median of n probes: what a phase boundary of the serving
// workload records, where one reading stands for seconds of requests.
func (p *hostProbe) reading(n int) float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = p.run()
	}
	return median(v)
}
