package runtime_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"memcnn/internal/runtime"
	"memcnn/internal/tensor"
)

// waitForFlight blocks until the cache holds an (in-flight) entry.
func waitForFlight(t *testing.T, c *runtime.ResultCache) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Size == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no flight appeared in the cache")
		}
		time.Sleep(time.Millisecond)
	}
}

// value builds a tiny result tensor carrying v, so cache round trips are
// checkable.
func value(v float32) *tensor.Tensor {
	t := tensor.New(tensor.Shape{N: 1, C: 1, H: 1, W: 1}, tensor.NCHW)
	t.Data[0] = v
	return t
}

// fetch runs a Do that returns value(v) and fails the test on error.
func fetch(t *testing.T, c *runtime.ResultCache, key uint64, v float32) *tensor.Tensor {
	t.Helper()
	out, err := c.Do(context.Background(), key, func() (*tensor.Tensor, error) { return value(v), nil })
	if err != nil {
		t.Fatalf("Do(%d): %v", key, err)
	}
	return out
}

// TestCacheHitMissCounters drives a deterministic sequence and checks every
// counter exactly.
func TestCacheHitMissCounters(t *testing.T) {
	c, err := runtime.NewResultCache(4)
	if err != nil {
		t.Fatal(err)
	}
	fetch(t, c, 1, 10) // miss
	fetch(t, c, 2, 20) // miss
	fetch(t, c, 1, 99) // hit: must return the cached 10, not recompute 99
	if got := fetch(t, c, 1, 99); got.Data[0] != 10 {
		t.Errorf("cached value overwritten: got %v, want 10", got.Data[0])
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 2 hits, 2 misses, 0 evictions", st)
	}
	if st.Size != 2 || st.Capacity != 4 {
		t.Errorf("stats = %+v, want size 2 of 4", st)
	}
}

// TestCacheEvictionOrder checks LRU order: touching an entry protects it, the
// least recently used entry leaves first.
func TestCacheEvictionOrder(t *testing.T) {
	c, err := runtime.NewResultCache(2)
	if err != nil {
		t.Fatal(err)
	}
	fetch(t, c, 1, 1)
	fetch(t, c, 2, 2)
	fetch(t, c, 1, 0) // touch 1: key 2 becomes least recently used
	fetch(t, c, 3, 3) // evicts 2
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// 1 and 3 are cached and answer with their first value; 2 was evicted and
	// is computed again.
	for _, tc := range []struct {
		key  uint64
		want float32
	}{{1, 1}, {3, 3}, {2, 42}} {
		if got := fetch(t, c, tc.key, 42); got.Data[0] != tc.want {
			t.Errorf("key %d after eviction: got %v, want %v", tc.key, got.Data[0], tc.want)
		}
	}
}

// TestCacheBoundedUnderChurn streams many distinct keys through a small cache
// and checks the size bound holds and evictions account for the overflow.
func TestCacheBoundedUnderChurn(t *testing.T) {
	const capacity, keys = 4, 100
	c, err := runtime.NewResultCache(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < keys; k++ {
		fetch(t, c, k, float32(k))
		if size := c.Stats().Size; size > capacity {
			t.Fatalf("cache grew to %d entries (capacity %d)", size, capacity)
		}
	}
	st := c.Stats()
	if st.Size != capacity {
		t.Errorf("size = %d, want %d", st.Size, capacity)
	}
	if st.Misses != keys || st.Evictions != keys-capacity {
		t.Errorf("stats = %+v, want %d misses and %d evictions", st, keys, keys-capacity)
	}
}

// TestCacheSingleFlight fires many concurrent identical requests and checks
// exactly one execution happened, with every caller receiving its result.
func TestCacheSingleFlight(t *testing.T) {
	c, err := runtime.NewResultCache(8)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 32
	var executions atomic.Uint64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = c.Do(context.Background(), 7, func() (*tensor.Tensor, error) {
				executions.Add(1)
				<-gate // hold the leader so every other caller joins the flight
				return value(77), nil
			})
		}(i)
	}
	// Wait until the leader is inside compute, then release it.
	waitForFlight(t, c)
	close(gate)
	wg.Wait()
	if n := executions.Load(); n != 1 {
		t.Errorf("%d executions for %d concurrent identical requests, want 1", n, callers)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if outs[i].Data[0] != 77 {
			t.Errorf("caller %d got %v, want 77", i, outs[i].Data[0])
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
	// Results are private copies: mutating one must not poison the cache.
	outs[0].Data[0] = -1
	if got := fetch(t, c, 7, 0); got.Data[0] != 77 {
		t.Errorf("cache shares storage with callers: got %v, want 77", got.Data[0])
	}
}

// TestCacheErrorNotCached checks that a failed execution propagates its error
// and leaves no entry behind, so the next request re-executes.
func TestCacheErrorNotCached(t *testing.T) {
	c, err := runtime.NewResultCache(4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.Do(context.Background(), 5, func() (*tensor.Tensor, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do returned %v, want the compute error", err)
	}
	if size := c.Stats().Size; size != 0 {
		t.Errorf("failed execution left %d cache entries", size)
	}
	if got := fetch(t, c, 5, 55); got.Data[0] != 55 {
		t.Errorf("retry after failure got %v, want 55", got.Data[0])
	}
	if st := c.Stats(); st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (failure plus retry)", st.Misses)
	}
}

// TestCacheContextCancellation checks a waiter abandons a slow flight when
// its context is cancelled.
func TestCacheContextCancellation(t *testing.T) {
	c, err := runtime.NewResultCache(4)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _ = c.Do(context.Background(), 9, func() (*tensor.Tensor, error) {
			<-gate
			return value(9), nil
		})
	}()
	waitForFlight(t, c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, 9, func() (*tensor.Tensor, error) { return value(9), nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(gate)
	<-leaderDone
}

// TestCacheRejectsBadCapacity covers the constructor's validation.
func TestCacheRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := runtime.NewResultCache(capacity); err == nil {
			t.Errorf("capacity %d accepted", capacity)
		}
	}
}

// TestImageChecksum checks the fingerprint is content-defined: equal images
// collide, different images (and shapes) do not, and the layout the client
// sent does not matter.
func TestImageChecksum(t *testing.T) {
	shape := tensor.Shape{N: 1, C: 3, H: 8, W: 8}
	a := tensor.Random(shape, tensor.NCHW, 1)
	b := tensor.Random(shape, tensor.NCHW, 1)
	if runtime.ImageChecksum(a) != runtime.ImageChecksum(b) {
		t.Error("identical images produced different checksums")
	}
	cDiff := tensor.Random(shape, tensor.NCHW, 2)
	if runtime.ImageChecksum(a) == runtime.ImageChecksum(cDiff) {
		t.Error("different images produced the same checksum")
	}
	// A one-bit flip must change the key.
	d := a.Clone()
	d.Data[17] += 1
	if runtime.ImageChecksum(a) == runtime.ImageChecksum(d) {
		t.Error("a perturbed image produced the same checksum")
	}
	// Layout-independent: the same image sent HWCN hashes like its NCHW twin.
	e := tensor.Convert(a, tensor.HWCN)
	if runtime.ImageChecksum(a) != runtime.ImageChecksum(e) {
		t.Error("the checksum depends on the client's layout")
	}
	// Shape participates: the same bytes under a different shape differ.
	f, err := tensor.NewFrom(tensor.Shape{N: 1, C: 3, H: 4, W: 16}, tensor.NCHW, a.Data)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.ImageChecksum(a) == runtime.ImageChecksum(f) {
		t.Error("reshaped image produced the same checksum")
	}
}
