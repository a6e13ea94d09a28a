package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// stepsJob counts what Steps ran: how often each plane of each step,
// how many planes have returned, and how many started too early.
type stepsJob struct {
	widths []int
	ran    [][]atomic.Int32
	done   *atomic.Int32
	early  *atomic.Int32
}

func stepsPlanes(j stepsJob, step int) int { return j.widths[step] }

func stepsWork(j stepsJob, step, p int) {
	before := 0
	for _, w := range j.widths[:step] {
		before += w
	}
	if int(j.done.Load()) < before {
		j.early.Add(1)
	}
	runtime.Gosched() // let the other workers run ahead if the barrier lets them
	j.ran[step][p].Add(1)
	j.done.Add(1)
}

// TestParallelStepsKeepsTheStepsInOrder checks that every plane of every step
// runs exactly once and that no plane starts before the whole previous step
// has returned, for step widths on either side of the worker count, empty
// steps included.
func TestParallelStepsKeepsTheStepsInOrder(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, widths := range [][]int{{}, {0}, {5}, {0, 5, 0}, {1, 1, 1, 1}, {3, 40, 2, 7}, {40, 3}, {64, 64, 64}, {2, 9, 1, 2, 9, 1, 2, 9, 1}} {
			for rep := 0; rep < 20; rep++ {
				j := stepsJob{widths: widths, ran: make([][]atomic.Int32, len(widths)), done: new(atomic.Int32), early: new(atomic.Int32)}
				for s, w := range widths {
					j.ran[s] = make([]atomic.Int32, w)
				}
				Steps(len(widths), j, stepsPlanes, stepsWork)
				for s := range j.ran {
					for p := range j.ran[s] {
						if n := j.ran[s][p].Load(); n != 1 {
							t.Fatalf("%d workers, widths %v: plane %d of step %d ran %d times", procs, widths, p, s, n)
						}
					}
				}
				if n := j.early.Load(); n != 0 {
					t.Fatalf("%d workers, widths %v: %d planes started before the step before them ended", procs, widths, n)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func countPlane(ran []atomic.Int32, p int) { ran[p].Add(1) }

// TestPlanesRunsEveryPlaneOnce covers plane counts on both sides of the worker
// count, and none at all.
func TestPlanesRunsEveryPlaneOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, planes := range []int{0, 1, 2, 3, 7, 8, 9, 64, 1000} {
			if w, want := Workers(planes), min(procs, planes); w != want {
				t.Fatalf("GOMAXPROCS %d: Workers(%d) = %d, want %d", procs, planes, w, want)
			}
			ran := make([]atomic.Int32, planes)
			Planes(planes, ran, countPlane)
			for p := range ran {
				if n := ran[p].Load(); n != 1 {
					t.Fatalf("GOMAXPROCS %d, %d planes: plane %d ran %d times", procs, planes, p, n)
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func oneStepPlanes(ran []atomic.Int32, step int) int { return len(ran) }

func countStepPlane(ran []atomic.Int32, step, p int) { ran[p].Add(1) }

// TestOneWorkerAllocatesNothing pins the contract the //memcnn:noalloc kernels
// rest on: with one worker both fan-outs run inline, without a heap object.
func TestOneWorkerAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ran := make([]atomic.Int32, 16)
	if n := testing.AllocsPerRun(20, func() { Planes(len(ran), ran, countPlane) }); n != 0 {
		t.Errorf("Planes with one worker: %v allocations a call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { Steps(3, ran, oneStepPlanes, countStepPlane) }); n != 0 {
		t.Errorf("Steps with one worker: %v allocations a call, want 0", n)
	}
}
