package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelPlanes runs work(job, p) for p in [0, planes) across GOMAXPROCS
// workers.  Each plane is processed by exactly one worker, so kernels that
// assign each output element to one plane stay bit-deterministic for any
// worker count.
//
// The job travels by value and work is a plain function, not a closure over
// the caller's locals: nothing the caller owns escapes, so a single-worker
// run stays inline and allocation free.  Only the multi-worker branch pays
// for the fan-out, inside fanOutPlanes.
//
//memcnn:noalloc
func ParallelPlanes[J any](planes int, job J, work func(job J, p int)) {
	workers := min(runtime.GOMAXPROCS(0), planes)
	if workers <= 1 {
		for p := 0; p < planes; p++ {
			work(job, p)
		}
		return
	}
	fanOutPlanes(planes, workers, job, work)
}

// fanOutPlanes hands planes out through an atomic counter rather than a job
// channel.  It is a separate function so that the state the goroutines share
// is heap-allocated here, not in ParallelPlanes' serial path; the workers run
// one closure over one state block, so a call leaves two small objects behind
// however many workers there are.
func fanOutPlanes[J any](planes, workers int, job J, work func(job J, p int)) {
	st := &struct {
		job  J
		next atomic.Int64
		wg   sync.WaitGroup
	}{job: job}
	drain := func() {
		defer st.wg.Done()
		for {
			p := int(st.next.Add(1) - 1)
			if p >= planes {
				return
			}
			work(st.job, p)
		}
	}
	st.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go drain()
	}
	st.wg.Wait()
}
