package par

import (
	"hash/maphash"
	"sync"
)

// stripes is the lock-striping factor of Cache; it only needs to
// comfortably exceed typical worker counts.
const stripes = 64

// Cache is a bounded, lock-striped memo map safe for concurrent use. It
// backs the repair generator's read-mostly memo of Eq. 7 similarity
// scores: entries are cheap to recompute, so when a stripe reaches its
// share of the capacity it is simply reset. Values must be immutable once
// stored — Get returns them without copying.
type Cache[K comparable, V any] struct {
	seed      maphash.Seed
	stripeCap int
	shards    [stripes]cacheShard[K, V]
}

type cacheShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V // gdr:guarded-by mu
}

// NewCache builds a cache holding at most roughly capacity entries.
func NewCache[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{seed: maphash.MakeSeed(), stripeCap: capacity / stripes}
	if c.stripeCap < 1 {
		c.stripeCap = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[K]V)
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *cacheShard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, k)%stripes]
}

// Get returns the cached value for k, if present.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	sh := c.shard(k)
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

// Put stores v under k, resetting the stripe first when it is full.
func (c *Cache[K, V]) Put(k K, v V) {
	sh := c.shard(k)
	sh.mu.Lock()
	if len(sh.m) >= c.stripeCap {
		sh.m = make(map[K]V)
	}
	sh.m[k] = v
	sh.mu.Unlock()
}
