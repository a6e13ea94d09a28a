package runtime_test

import (
	goruntime "runtime"
	"testing"

	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
	"memcnn/internal/workloads"
)

// TestPoolHoldsOneInstancePerConcurrentRun pins what the serving footprint
// rests on: every released instance is found again by the next Get, on any P
// and across garbage collections, so a pool never holds more arenas than runs
// were in flight at once.
func TestPoolHoldsOneInstancePerConcurrentRun(t *testing.T) {
	net, err := workloads.TinyNet()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileFixedLayout(net, tensor.NCHW, runtime.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := runtime.NewPool(prog)
	get := func() *runtime.Instance {
		t.Helper()
		inst, err := pool.Get()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}

	a, b := get(), get()
	if a == b {
		t.Fatal("two concurrent Gets share an instance")
	}
	// Released on whichever P the test runs on now, taken back after two GC
	// cycles (which empty a sync.Pool) from goroutines of their own.
	pool.Put(a)
	pool.Put(b)
	goruntime.GC()
	goruntime.GC()
	got := make(chan *runtime.Instance, 2)
	for i := 0; i < 2; i++ {
		go func() {
			inst, _ := pool.Get()
			got <- inst
		}()
	}
	x, y := <-got, <-got
	if !(x == a && y == b) && !(x == b && y == a) {
		t.Error("Get built a new instance while released ones were idle")
	}
	if c := get(); c == a || c == b {
		t.Error("Get handed out an instance that is in use")
	}
}
