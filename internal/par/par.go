// Package par is the one place where a kernel's work is split across
// goroutines.  It is a leaf (standard library only) so that tensor, kernels
// and layers can all fan out through it, and Workers holds the only
// runtime.GOMAXPROCS read of the non-test code: a worker budget handed down
// from a device would be a change to this file alone.
//
// Both fan-outs take the job by value and the work as a plain top-level
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

// Steps is Planes for a kernel made of steps that must follow one another,
// each of them plane-parallel (unroll an image, multiply by the unrolled
// matrix, move on to the next image): for every step s in order it runs
// work(job, s, p) for p in [0, planes(job, s)), and no plane of a step starts
// before every plane of the step before it has returned.  Each plane still
// runs on exactly one worker.  The whole sequence shares one fan-out: the
// workers meet at a barrier between steps instead of being launched and
// joined once a step, so a call leaves the two small objects of a single
// Planes call behind however many steps it has.
//
//memcnn:noalloc
func Steps[J any](steps int, job J, planes func(job J, step int) int, work func(job J, step, p int)) {
	widest := 0
	for s := 0; s < steps; s++ {
		widest = max(widest, planes(job, s))
	}
	workers := Workers(widest)
	if workers <= 1 {
		for s := 0; s < steps; s++ {
			for p, n := 0, planes(job, s); p < n; p++ {
				work(job, s, p)
			}
		}
		return
	}
	fanOutSteps(workers, steps, job, planes, work)
}

// fanOutSteps runs every worker through every step.  Inside a step the planes
// are handed out through an atomic counter, as in fanOutPlanes; a worker that
// finds the step exhausted waits at the barrier, and the last one to arrive
// rewinds the counter and opens the next step.  Nobody touches the counter
// while it is rewound: everyone else is parked on the condition variable.
func fanOutSteps[J any](workers, steps int, job J, planes func(job J, step int) int, work func(job J, step, p int)) {
	st := &struct {
		job  J
		next atomic.Int64
		wg   sync.WaitGroup

		mu      sync.Mutex
		opened  sync.Cond // signalled when step advances
		step    int       // the step the barrier has opened
		arrived int       // workers waiting for the next one
	}{job: job}
	st.opened.L = &st.mu
	drain := func() {
		defer st.wg.Done()
		for s := 0; s < steps; s++ {
			n := planes(st.job, s)
			for p := int(st.next.Add(1) - 1); p < n; p = int(st.next.Add(1) - 1) {
				work(st.job, s, p)
			}
			st.mu.Lock()
			if st.arrived++; st.arrived == workers {
				st.arrived = 0
				st.next.Store(0)
				st.step++
				st.opened.Broadcast()
			} else {
				for st.step == s {
					st.opened.Wait()
				}
			}
			st.mu.Unlock()
		}
	}
	st.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go drain()
	}
	st.wg.Wait()
}
