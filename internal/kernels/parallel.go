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

// ParallelSteps is ParallelPlanes for a kernel made of steps that must follow
// one another, each of them plane-parallel (unroll an image, multiply by the
// unrolled matrix, move on to the next image): for every step s in order it
// runs work(job, s, p) for p in [0, planes(job, s)), and no plane of a step
// starts before every plane of the step before it has returned.  Each plane
// still runs on exactly one worker.  The whole sequence shares one fan-out:
// the workers meet at a barrier between steps instead of being launched and
// joined once a step, so a call leaves the two small objects of a single
// ParallelPlanes call behind however many steps it has.
//
//memcnn:noalloc
func ParallelSteps[J any](steps int, job J, planes func(job J, step int) int, work func(job J, step, p int)) {
	widest := 0
	for s := 0; s < steps; s++ {
		widest = max(widest, planes(job, s))
	}
	workers := min(runtime.GOMAXPROCS(0), widest)
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
