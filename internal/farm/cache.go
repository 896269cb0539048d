package farm

import (
	"crypto/sha256"
	"sync"
)

// Cache memoizes fitness values across generations and jobs. The paper
// averages a virus's VRT noise over ten runs, so its mean fitness is a
// property of (chromosome, operating conditions); a chromosome that
// survives into later generations — elites do every generation — or recurs
// in another job can reuse the measured value instead of re-deploying.
//
// The cache is safe for concurrent use. Once Limit is exceeded, the
// least-recently-used entry is evicted: every hit and every re-put promotes
// its key to the back of the queue, so the elites a GA carries across
// generations outlive the churn of one-off offspring even under a small
// limit. Eviction stays deterministic because the pool drives all cache
// traffic from EvaluateBatch's serial phases, in batch order.
type Cache struct {
	mu     sync.Mutex
	vals   map[cacheKey]cacheSlot
	order  []cacheEntry // recency queue; live region is order[head:]
	head   int          // consumed prefix, reclaimed by compaction
	tick   uint64
	limit  int
	hits   uint64
	misses uint64
}

// cacheEntry is one position in the recency queue. A promoted key leaves its
// old entry behind as a tombstone (its ticket no longer matches the slot's);
// eviction skips tombstones, which keeps promotion O(1) instead of O(queue).
type cacheEntry struct {
	key  cacheKey
	tick uint64
}

// cacheKey is the digest a memoization key is held under. The keys are
// ~100-byte strings (operating conditions plus chromosome identity); held
// whole, their text would be most of a full cache's memory. 128 bits keep
// collisions out of reach at any limit.
type cacheKey [16]byte

// cacheSlot is one memoized value and the ticket of its key's newest queue
// entry.
type cacheSlot struct {
	val  float64
	tick uint64
}

func digestKey(key string) cacheKey {
	sum := sha256.Sum256([]byte(key))
	return cacheKey(sum[:16])
}

// NewCache returns an unbounded cache; call SetLimit to bound it.
func NewCache() *Cache {
	return &Cache{
		vals: make(map[cacheKey]cacheSlot),
	}
}

// SetLimit bounds the entry count (0 = unbounded). Shrinking evicts
// least-recently-used entries immediately.
func (c *Cache) SetLimit(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.limit = n
	c.evict()
}

// touch moves key to the back of the recency queue.
func (c *Cache) touch(key cacheKey) {
	c.tick++
	slot := c.vals[key]
	slot.tick = c.tick
	c.vals[key] = slot
	c.order = append(c.order, cacheEntry{key: key, tick: c.tick})
	c.compact()
}

func (c *Cache) evict() {
	if c.limit <= 0 {
		return
	}
	for len(c.vals) > c.limit && c.head < len(c.order) {
		e := c.order[c.head]
		c.head++
		if c.vals[e.key].tick != e.tick {
			continue // tombstone of a promoted key
		}
		delete(c.vals, e.key)
	}
	c.compact()
}

// compact bounds the queue's memory. The consumed prefix and the tombstones
// are copied away into fresh arrays — re-slicing (order = order[head:])
// would keep the whole old backing array reachable for as long as the cache
// lives.
func (c *Cache) compact() {
	if c.head > 32 && c.head*2 >= len(c.order) {
		c.order = append([]cacheEntry(nil), c.order[c.head:]...)
		c.head = 0
	}
	if len(c.order)-c.head > 2*len(c.vals)+32 {
		fresh := make([]cacheEntry, 0, len(c.vals))
		for _, e := range c.order[c.head:] {
			if c.vals[e.key].tick == e.tick {
				fresh = append(fresh, e)
			}
		}
		c.order, c.head = fresh, 0
	}
}

func (c *Cache) lookup(s string) (float64, bool) {
	key := digestKey(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	slot, ok := c.vals[key]
	if ok {
		// A hit is a reuse: keep the entry alive. This is what lets elites —
		// which are looked up, never re-put — survive a bounded cache.
		c.touch(key)
	}
	return slot.val, ok
}

func (c *Cache) put(s string, v float64) {
	key := digestKey(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.vals[key] = cacheSlot{val: v}
	c.touch(key)
	c.evict()
}

func (c *Cache) addHit() {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
}

func (c *Cache) addMiss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// CacheStats is a point-in-time summary.
type CacheStats struct {
	Hits    uint64  `json:"hits"`   // avoided evaluations (cache + in-batch dedup)
	Misses  uint64  `json:"misses"` // evaluations performed through the cache
	Entries int     `json:"entries"`
	HitRate float64 `json:"hit_rate"` // hits / (hits + misses); 0 when idle
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.vals)}
	if total := c.hits + c.misses; total > 0 {
		s.HitRate = float64(c.hits) / float64(total)
	}
	return s
}

// Len returns the number of memoized entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}
