package service

import "container/list"

// lru maps keys to values with least-recently-used eviction, bounded by the
// total bytes its values retain rather than by an entry count: one
// 100k-node partition pins ~200 KB while a 50-node one pins a few hundred
// bytes, so a count bound would make the daemon's memory a function of its
// workload mix. The result cache and the graph store each keep one. It is
// not self-locking: each owner serializes access under its own mutex, which
// also keeps the owner's hit and eviction counters exact.
type lru[V any] struct {
	maxBytes int64
	bytes    int64
	order    *list.List // front = most recently used; values are *lruItem[V]
	items    map[string]*list.Element
}

type lruItem[V any] struct {
	key  string
	val  V
	size int64
}

func newLRU[V any](maxBytes int64) *lru[V] {
	return &lru[V]{
		maxBytes: maxBytes,
		order:    list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the value under key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[V]).val, true
}

// add inserts val, accounted as size bytes, and evicts from the LRU end
// until the byte budget holds again, returning how many entries were
// evicted. The newest entry itself is never evicted: one value larger than
// the whole budget is retained alone (and evicted by the next insert), so
// oversized values stay storable instead of thrashing. The key must not be
// present; both owners look it up first under the same lock.
func (c *lru[V]) add(key string, val V, size int64) (evicted int) {
	c.items[key] = c.order.PushFront(&lruItem[V]{key: key, val: val, size: size})
	c.bytes += size
	for c.bytes > c.maxBytes && c.order.Len() > 1 {
		oldest := c.order.Back()
		item := oldest.Value.(*lruItem[V])
		c.order.Remove(oldest)
		delete(c.items, item.key)
		c.bytes -= item.size
		evicted++
	}
	return evicted
}

func (c *lru[V]) len() int { return c.order.Len() }
