package runtime

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"

	"memcnn/internal/tensor"
)

// ImageChecksum fingerprints one request image for the serving-side result
// cache: an FNV-1a hash over the shape and the canonical (N,C,H,W)-order
// float32 bits, so the key does not depend on the layout the client happened
// to send.  Two images collide only if 64-bit FNV collides — acceptable for a
// memoisation cache, where a collision returns a wrong cached answer with
// probability ~2^-64 per lookup.
func ImageChecksum(img *tensor.Tensor) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for shift := 0; shift < 64; shift += 8 {
			h ^= (v >> shift) & 0xff
			h *= prime64
		}
	}
	s := img.Shape
	mix(uint64(s.N)<<48 | uint64(s.C)<<32 | uint64(s.H)<<16 | uint64(s.W))
	if img.Layout == tensor.NCHW || s.N == 1 && img.Layout == tensor.CHWN {
		// The backing slice already is the canonical linearisation.
		for _, v := range img.Data {
			mix(uint64(math.Float32bits(v)))
		}
		return h
	}
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for hh := 0; hh < s.H; hh++ {
				for w := 0; w < s.W; w++ {
					mix(uint64(math.Float32bits(img.At(n, c, hh, w))))
				}
			}
		}
	}
	return h
}

// CacheStats is a snapshot of the result cache's behaviour.  A request that
// triggered an execution counts as a miss; a request served from a completed
// entry or by joining an in-flight execution counts as a hit.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
}

// cacheEntry is one keyed result.  ready closes when the leader's execution
// completes; waiters joined before then block on it (single-flight).
type cacheEntry struct {
	key   uint64
	ready chan struct{}
	out   *tensor.Tensor
	err   error
}

// ResultCache memoises per-image inference results keyed by input checksum: a
// bounded LRU with single-flight execution, so N concurrent identical
// requests cost one planned execution and repeated inputs skip execution
// entirely.  It is safe for concurrent use.
type ResultCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[uint64]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewResultCache builds a cache holding at most capacity entries.
func NewResultCache(capacity int) (*ResultCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("runtime: cache capacity %d must be positive", capacity)
	}
	return &ResultCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[uint64]*list.Element, capacity),
	}, nil
}

// Do returns the cached result for key, executing compute when the key is
// absent.  Concurrent callers with the same key share one execution: the
// first becomes the leader, the rest wait for its result (or their own
// context).  A failed execution is not cached — its error propagates to the
// leader and every waiter that joined it, and the next request re-executes.
// The returned tensor is a private copy the caller owns.
func (c *ResultCache) Do(ctx context.Context, key uint64, compute func() (*tensor.Tensor, error)) (*tensor.Tensor, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if e.err != nil {
			return nil, e.err
		}
		return e.out.Clone(), nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.byKey[key] = el
	c.misses++
	// Evicting the least recently used entry may drop one still in flight
	// (tiny capacity, many distinct concurrent keys); its waiters hold the
	// entry directly and are unaffected — the result just is not retained.
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.byKey, back.Value.(*cacheEntry).key)
		c.evictions++
	}
	c.mu.Unlock()

	out, err := compute()
	e.out, e.err = out, err
	if err != nil {
		c.mu.Lock()
		if cur, ok := c.byKey[key]; ok && cur == el {
			c.ll.Remove(el)
			delete(c.byKey, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	if err != nil {
		return nil, err
	}
	return out.Clone(), nil
}

// Stats returns a snapshot of the counters.
func (c *ResultCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
	}
}
