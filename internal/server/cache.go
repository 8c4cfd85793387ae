package server

import (
	"container/list"
	"sync"
)

// resultKey identifies one query result within a generation: the pattern's
// canonical key (metalog.Pattern.Key — its token stream, so layout
// differences between clients hit the same entry and two texts share an
// entry only if they share a parse) plus the row limit. Alpha-renamed
// patterns are different keys, which only costs a duplicate entry, never a
// wrong answer.
type resultKey struct {
	query string
	limit int
}

// lru is a mutex-guarded least-recently-used map. Its zero value is ready to
// use and allocates on the first put; the capacity is the putter's (the
// server's configuration), and a capacity <= 0 disables it: puts are dropped,
// so every lookup misses. Each generation owns two (see snapshot): query
// results as marshaled response bodies — storing the exact bytes (not the
// row structs) makes a cache hit bit-identical to the miss that populated
// it, which the soak test asserts — and compiled plans (plan.go).
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	order *list.List // front = most recently used; values are *lruEntry[K, V]
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func (c *lru[K, V]) get(k K) (V, bool) {
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

func (c *lru[K, V]) put(k K, v V, capacity int) {
	if capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		c.order, c.items = list.New(), map[K]*list.Element{}
	}
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry[K, V]).val = v
		return
	}
	c.items[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	for c.order.Len() > capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[K, V]).key)
	}
}

func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
