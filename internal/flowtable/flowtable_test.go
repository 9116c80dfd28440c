package flowtable

import (
	"testing"
	"time"

	"portland/internal/ether"
)

type clock struct{ t time.Duration }

func (c *clock) now() time.Duration { return c.t }

func TestLookupInstallExpiry(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Second)
	k := Key{Dst: ether.Addr{1}, Hash: 42}
	if _, ok := tb.Lookup(k); ok {
		t.Fatal("hit on empty table")
	}
	tb.Install(k, 3)
	if p, ok := tb.Lookup(k); !ok || p != 3 {
		t.Fatalf("lookup %d %v", p, ok)
	}
	// Idle timeout refresh: repeated hits keep the entry alive past
	// the original TTL.
	for i := 0; i < 5; i++ {
		c.t += 800 * time.Millisecond
		if _, ok := tb.Lookup(k); !ok {
			t.Fatal("entry expired despite activity")
		}
	}
	// Idle past TTL: gone.
	c.t += 1100 * time.Millisecond
	if _, ok := tb.Lookup(k); ok {
		t.Fatal("idle entry survived")
	}
	if tb.Stats.Expired != 1 || tb.Stats.Installs != 1 {
		t.Fatalf("stats %+v", tb.Stats)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := &clock{}
	tb := New(c.now, 0)
	for i := 0; i < 10; i++ {
		tb.Install(Key{Dst: ether.Addr{byte(i)}}, i)
	}
	if tb.Len() != 10 {
		t.Fatal("len")
	}
	tb.InvalidateAll()
	if tb.Len() != 0 || tb.Stats.Invalidations != 1 {
		t.Fatalf("after invalidate: len=%d stats=%+v", tb.Len(), tb.Stats)
	}
	tb.InvalidateAll() // empty: not counted
	if tb.Stats.Invalidations != 1 {
		t.Fatal("empty invalidation counted")
	}
}

func TestLenPrunes(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Second)
	tb.Install(Key{Dst: ether.Addr{1}}, 1)
	tb.Install(Key{Dst: ether.Addr{2}}, 2)
	c.t = 2 * time.Second
	if tb.Len() != 0 {
		t.Fatal("expired entries counted")
	}
	if tb.Stats.Expired != 2 {
		t.Fatalf("stats %+v", tb.Stats)
	}
}

func TestFlowKeysIndependent(t *testing.T) {
	c := &clock{}
	tb := New(c.now, 0)
	dst := ether.Addr{9}
	tb.Install(Key{Dst: dst, Hash: 1}, 2)
	tb.Install(Key{Dst: dst, Hash: 7}, 3)
	if p, _ := tb.Lookup(Key{Dst: dst, Hash: 1}); p != 2 {
		t.Fatal("hash 1")
	}
	if p, _ := tb.Lookup(Key{Dst: dst, Hash: 7}); p != 3 {
		t.Fatal("hash 7")
	}
}

func TestLRUEviction(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Minute)
	tb.SetLimit(Limit{Capacity: 3, Policy: EvictLRU})
	k := func(i int) Key { return Key{Dst: ether.Addr{byte(i)}} }
	tb.Install(k(1), 1)
	tb.Install(k(2), 2)
	tb.Install(k(3), 3)
	// Touch 1 so 2 becomes the LRU victim.
	c.t += time.Millisecond
	if _, ok := tb.Lookup(k(1)); !ok {
		t.Fatal("warm entry missing")
	}
	tb.Install(k(4), 4)
	if _, ok := tb.Lookup(k(2)); ok {
		t.Fatal("LRU victim survived")
	}
	for _, i := range []int{1, 3, 4} {
		if _, ok := tb.Lookup(k(i)); !ok {
			t.Fatalf("entry %d evicted out of LRU order", i)
		}
	}
	if tb.Stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", tb.Stats.Evictions)
	}
	if tb.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", tb.Len())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	for _, pol := range []Policy{EvictLRU, EvictRandom} {
		c := &clock{}
		tb := New(c.now, time.Minute)
		tb.SetLimit(Limit{Capacity: 16, Policy: pol, Seed: 7})
		for i := 0; i < 500; i++ {
			tb.Install(Key{Dst: ether.Addr{byte(i), byte(i >> 8)}}, i)
			if tb.Len() > 16 {
				t.Fatalf("%v: len %d exceeds capacity", pol, tb.Len())
			}
		}
		if tb.Stats.Evictions != 500-16 {
			t.Fatalf("%v: evictions = %d, want %d", pol, tb.Stats.Evictions, 500-16)
		}
		if tb.Occupancy() != 1 {
			t.Fatalf("%v: occupancy = %v, want 1", pol, tb.Occupancy())
		}
	}
}

// TestRandomEvictionDeterministic pins the eviction-determinism
// contract at the unit level: two tables fed the identical install
// sequence from the same seed must evict the identical victims — the
// PRNG is table-owned, so nothing about engine scheduling can perturb
// it. (The fabric-level version of this contract is
// TestEvictionDeterminism in internal/core.)
func TestRandomEvictionDeterministic(t *testing.T) {
	run := func() []Key {
		c := &clock{}
		tb := New(c.now, time.Minute)
		tb.SetLimit(Limit{Capacity: 8, Policy: EvictRandom, Seed: 99})
		for i := 0; i < 100; i++ {
			c.t += time.Microsecond
			tb.Install(Key{Dst: ether.Addr{byte(i)}, Hash: uint32(i)}, i)
		}
		var live []Key
		for e := tb.tail; e != nil; e = e.prev {
			live = append(live, e.key)
		}
		return live
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 8 {
		t.Fatalf("live sets differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("survivor %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBoundedPruneAndReuse exercises the remove/reinstall machinery:
// expiry pruning under a bound must keep the LRU list, dense slice,
// and map consistent.
func TestBoundedPruneAndReuse(t *testing.T) {
	c := &clock{}
	tb := New(c.now, time.Second)
	tb.SetLimit(Limit{Capacity: 4, Policy: EvictLRU})
	for i := 0; i < 4; i++ {
		tb.Install(Key{Dst: ether.Addr{byte(i)}}, i)
	}
	c.t = 2 * time.Second // everything expires
	if tb.Len() != 0 {
		t.Fatalf("len after expiry = %d", tb.Len())
	}
	if tb.Stats.Expired != 4 {
		t.Fatalf("expired = %d", tb.Stats.Expired)
	}
	for i := 10; i < 14; i++ {
		tb.Install(Key{Dst: ether.Addr{byte(i)}}, i)
	}
	if tb.Len() != 4 || tb.Stats.Evictions != 0 {
		t.Fatalf("reinstall after prune: len=%d stats=%+v", tb.Len(), tb.Stats)
	}
	tb.InvalidateAll()
	if tb.Len() != 0 || tb.Occupancy() != 0 {
		t.Fatal("invalidate left residue")
	}
	tb.Install(Key{Dst: ether.Addr{42}}, 1)
	if tb.Len() != 1 {
		t.Fatal("install after invalidate")
	}
}
