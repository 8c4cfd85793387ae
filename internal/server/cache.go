package server

import (
	"container/list"
	"strings"
	"sync"
)

// cacheKey identifies one query result: the snapshot generation pins the
// data the result was computed from, so a generation swap invalidates every
// cached entry — no later request asks for an older generation, and
// Server.install empties the LRU so the dead entries do not sit in memory
// until newer ones push them out. Canonicalized query text plus the row
// limit pin the computation.
type cacheKey struct {
	gen   uint64
	query string
	limit int
}

// canonicalQuery normalizes a pattern for cache keying: runs of whitespace
// (including newlines) collapse to single spaces, so formatting differences
// between clients hit the same entry. It deliberately does not parse — two
// alpha-renamed patterns are different keys, which only costs a duplicate
// entry, never a wrong answer.
func canonicalQuery(q string) string {
	return strings.Join(strings.Fields(q), " ")
}

// lru is a mutex-guarded least-recently-used map. capacity <= 0 disables it:
// every lookup misses and puts are dropped. The server keeps two: query
// results as marshaled response bodies — storing the exact bytes (not the
// row structs) makes a cache hit bit-identical to the miss that populated
// it, which the soak test asserts — and compiled plans (plan.go).
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	c := &lru[K, V]{cap: capacity}
	if capacity > 0 {
		c.order = list.New()
		c.items = make(map[K]*list.Element, capacity)
	}
	return c
}

func (c *lru[K, V]) get(k K) (V, bool) {
	if c.cap <= 0 {
		var zero V
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

func (c *lru[K, V]) put(k K, v V) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = v
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// clear drops every entry. An in-flight request of an older generation may
// still put its result afterwards: that entry can never hit and leaves with
// the next clear or by eviction.
func (c *lru[K, V]) clear() {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.items)
}

func (c *lru[K, V]) len() int {
	if c.cap <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
