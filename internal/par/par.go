// Package par is the one place where a kernel's work is split across
// goroutines.  It is a leaf (standard library only) so that tensor, kernels
// and layers can all fan out through it, and Workers holds the only
// runtime.GOMAXPROCS read of the non-test code: a worker budget handed down
// from a device would be a change to this file alone.
//
// The fan-out takes the job by value and the work as a plain top-level
// function, not a closure over the caller's locals: nothing the caller owns
// escapes, so a single-worker run stays inline and allocation free, which is
// what lets callers carry //memcnn:noalloc.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many goroutines a fan-out over the given number of
// planes uses: GOMAXPROCS, capped by the planes.  A kernel whose lanes each
// own a block of workspace calls it to touch no more blocks than will run.
func Workers(planes int) int {
	return min(runtime.GOMAXPROCS(0), planes)
}

// Planes runs work(job, p) for p in [0, planes) across Workers(planes)
// goroutines.  Each plane is processed by exactly one worker, so kernels that
// assign each output element to one plane stay bit-deterministic for any
// worker count.  Only the multi-worker branch pays for the fan-out, inside
// fanOutPlanes.
//
//memcnn:noalloc
func Planes[J any](planes int, job J, work func(job J, p int)) {
	workers := Workers(planes)
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
// is heap-allocated here, not in Planes' serial path; the workers run one
// closure over one state block, so a call leaves two small objects behind
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
