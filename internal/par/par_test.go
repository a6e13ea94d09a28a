package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

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

// TestOneWorkerAllocatesNothing pins the contract the //memcnn:noalloc kernels
// rest on: with one worker the fan-out runs inline, without a heap object.
func TestOneWorkerAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ran := make([]atomic.Int32, 16)
	if n := testing.AllocsPerRun(20, func() { Planes(len(ran), ran, countPlane) }); n != 0 {
		t.Errorf("Planes with one worker: %v allocations a call, want 0", n)
	}
}
