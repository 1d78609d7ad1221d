// Package server implements the kwmds serve subsystem: an HTTP JSON
// service that runs any pipeline configuration on posted or preloaded
// graphs through a bounded worker pool, with an LRU result cache keyed on
// (graph digest, options) so repeated queries on the same topology are
// answered without recomputation, and a memo of the deterministic LP stage
// keyed on (graph digest, LP configuration) so distinct-seed cold solves
// of one topology run only the rounding stage.
package server

import (
	"container/list"
	"context"
	"strings"
	"sync"
)

// resultCache is a thread-safe LRU with single-flight computation:
// concurrent misses on the same key run compute once and share the value.
// Errors are never cached. The server keeps two: solve responses, and the
// LP stage's fractional solutions.
type resultCache[V any] struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *cacheEntry[V]
	items    map[string]*list.Element
	inflight map[string]*inflightCall[V]

	hits   int64
	misses int64
}

type cacheEntry[V any] struct {
	key string
	val V
}

// inflightCall is one running computation with a refcount of interested
// requests. Its context is canceled when the LAST waiter abandons the call
// (its request context ended) — one impatient client among several never
// kills a computation the others still want; only a unanimous walkout does.
type inflightCall[V any] struct {
	done     chan struct{}
	cancel   context.CancelFunc
	waiters  int  // guarded by resultCache.mu
	canceled bool // guarded by resultCache.mu
	// stale marks a call whose digest was invalidated while it ran: it
	// still answers its waiters, but its value is not retained.
	stale bool // guarded by resultCache.mu
	val   V
	err   error
}

// newResultCache returns a cache retaining at most capacity values; 0
// retains nothing (single-flight coalescing still applies).
func newResultCache[V any](capacity int) *resultCache[V] {
	return &resultCache[V]{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall[V]),
	}
}

// getOrCompute returns the cached value for key, or runs compute once —
// also on behalf of any concurrent callers with the same key — and caches
// its result. hit reports whether the caller got a previously computed
// value (including one computed by the call it piggybacked on).
//
// ctx is the caller's interest in the answer, not the computation's
// lifetime: a caller whose ctx ends stops waiting and gets ctx.Err(), but
// the computation keeps running as long as ANY caller still waits. compute
// receives a context that is canceled only when every interested caller
// has walked out — wire its Done channel to the solver's Options.Cancel
// (or pass the context on to a nested cache) and an abandoned computation
// stops burning the worker pool. Canceled computations return errors and
// are never cached.
func (c *resultCache[V]) getOrCompute(ctx context.Context, key string, compute func(ctx context.Context) (V, error)) (val V, hit bool, err error) {
	// A caller that is already gone starts nothing: its computation would
	// only be canceled at once, or finish for nobody.
	if err := ctx.Err(); err != nil {
		return val, false, err
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		return el.Value.(*cacheEntry[V]).val, true, nil
	}
	if call, ok := c.inflight[key]; ok && !call.canceled {
		call.waiters++
		c.hits++
		c.mu.Unlock()
		return c.wait(ctx, call, true)
	}
	// A canceled in-flight call may still be winding down under this key;
	// the new call replaces it in the map (the old goroutine's cleanup
	// checks identity before deleting).
	callCtx, cancel := context.WithCancel(context.Background())
	call := &inflightCall[V]{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.inflight[key] = call
	c.misses++
	c.mu.Unlock()

	go func() {
		v, cerr := compute(callCtx)
		cancel()
		c.mu.Lock()
		if c.inflight[key] == call {
			delete(c.inflight, key)
		}
		if cerr == nil && !call.stale && c.capacity > 0 {
			if _, dup := c.items[key]; !dup {
				c.items[key] = c.order.PushFront(&cacheEntry[V]{key: key, val: v})
				for c.order.Len() > c.capacity {
					oldest := c.order.Back()
					c.order.Remove(oldest)
					delete(c.items, oldest.Value.(*cacheEntry[V]).key)
				}
			}
		}
		c.mu.Unlock()
		call.val, call.err = v, cerr
		close(call.done)
	}()
	return c.wait(ctx, call, false)
}

// wait blocks until the call completes or the caller's ctx ends. The last
// waiter to leave cancels the call's context.
func (c *resultCache[V]) wait(ctx context.Context, call *inflightCall[V], hit bool) (val V, _ bool, _ error) {
	select {
	case <-call.done:
		return call.val, hit, call.err
	case <-ctx.Done():
		c.mu.Lock()
		call.waiters--
		if call.waiters == 0 && !call.canceled {
			call.canceled = true
			call.cancel()
		}
		c.mu.Unlock()
		return val, false, ctx.Err()
	}
}

// invalidateDigest drops every cached entry keyed under the given topology
// digest (keys are "digest|…") and returns how many were removed. A
// mutation calls it with the pre-mutation digest: the new digest can never
// collide with old keys, so this is purely about not letting a mutated
// graph's dead values squat in the LRU. In-flight computations for the
// old digest still answer their waiters — they are keyed by that digest
// and therefore answer exactly the epoch their callers pinned — but are
// marked stale, so their values are not retained either.
func (c *resultCache[V]) invalidateDigest(digest string) int {
	prefix := digest + "|"
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, call := range c.inflight {
		if strings.HasPrefix(key, prefix) {
			call.stale = true
		}
	}
	dropped := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry[V]); strings.HasPrefix(e.key, prefix) {
			c.order.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// stats returns the entry count and cumulative hit/miss counters.
func (c *resultCache[V]) stats() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}
