package farm

import (
	"fmt"
	"testing"
)

// TestCacheReleasesEvictedStorage pins the fix for the eviction leak: the
// recency queue used to be re-sliced (order = order[1:]), which kept the
// whole backing array — and every evicted key's string — reachable for the
// cache's lifetime. The queue must stay O(limit) no matter how many entries
// churn through.
func TestCacheReleasesEvictedStorage(t *testing.T) {
	c := NewCache()
	c.SetLimit(8)
	for i := 0; i < 50_000; i++ {
		c.put(fmt.Sprintf("key-%d", i), float64(i))
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d, want the limit 8", c.Len())
	}
	c.mu.Lock()
	qcap, qlen, head := cap(c.order), len(c.order), c.head
	c.mu.Unlock()
	if qcap > 256 {
		t.Fatalf("queue cap = %d after 50k evictions: evicted entries are "+
			"pinning backing storage", qcap)
	}
	if qlen-head > 256 {
		t.Fatalf("queue holds %d live slots for 8 entries", qlen-head)
	}
	// The survivors are exactly the newest keys.
	if _, ok := c.lookup("key-49999"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.lookup("key-0"); ok {
		t.Fatal("oldest entry survived")
	}
}

// TestCacheKeepsElitesUnderSmallLimit pins the promotion policy. A GA's
// elites are looked up every generation (they carry over unchanged); under
// the old pure-FIFO policy they aged out as soon as enough offspring had
// been inserted after them, so exactly the hottest entries missed. Hits and
// re-puts must move a key to the back of the eviction queue.
func TestCacheKeepsElitesUnderSmallLimit(t *testing.T) {
	c := NewCache()
	c.SetLimit(6)
	elites := []string{"elite-a", "elite-b"}
	for _, k := range elites {
		c.put(k, 1)
	}
	fresh := 0
	for gen := 1; gen <= 40; gen++ {
		// Prologue: the elites recur and must hit...
		for _, k := range elites {
			if _, ok := c.lookup(k); !ok {
				t.Fatalf("generation %d: %s was evicted by offspring churn", gen, k)
			}
		}
		// ...then the generation's novel offspring are measured and published,
		// churning the rest of the cache past its limit every generation.
		for i := 0; i < 3; i++ {
			fresh++
			c.put(fmt.Sprintf("offspring-%d", fresh), float64(fresh))
		}
	}
	if c.Len() != 6 {
		t.Fatalf("len = %d, want 6", c.Len())
	}
}

// TestCacheRePutPromotes covers the write-side promotion: re-putting a key
// renews its position just like a hit does.
func TestCacheRePutPromotes(t *testing.T) {
	c := NewCache()
	c.SetLimit(3)
	c.put("a", 1)
	c.put("b", 2)
	c.put("c", 3)
	c.put("a", 1.5) // renew a: now b is the least recently used
	c.put("d", 4)   // evicts b, not a
	if _, ok := c.lookup("b"); ok {
		t.Fatal("b survived; re-put did not promote a")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.lookup(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	if v, _ := c.lookup("a"); v != 1.5 {
		t.Fatalf("a = %v, want the re-put value 1.5", v)
	}
}

// TestCacheShrinkEvictsLRUOrder covers SetLimit shrinking an existing cache:
// the least recently touched entries go first.
func TestCacheShrinkEvictsLRUOrder(t *testing.T) {
	c := NewCache()
	for i := 0; i < 6; i++ {
		c.put(fmt.Sprintf("k%d", i), float64(i))
	}
	c.lookup("k0") // refresh the oldest
	c.SetLimit(2)
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	for _, k := range []string{"k0", "k5"} {
		if _, ok := c.lookup(k); !ok {
			t.Fatalf("%s should have survived the shrink", k)
		}
	}
}
