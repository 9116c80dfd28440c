package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"portland/internal/flowtable"
	"portland/internal/pswitch"
	"portland/internal/topo"
	"portland/internal/workload"
)

// evictionTrace boots a k=4 fabric whose switches run a deliberately
// tiny hardware envelope, drives enough distinct flows through it to
// force flow-table evictions and ECMP group-table degradations, and
// returns a per-switch signature of everything the hardware model
// decided: flow-table hit/miss/install/evict counts, live occupancy,
// and group-table charge state.
func evictionTrace(t *testing.T, policy flowtable.Policy) string {
	t.Helper()
	gen := pswitch.Generation{
		Name:        "tiny",
		ECMPGroups:  2,
		ECMPMembers: 8,
		FlowEntries: 8,
		FlowPolicy:  policy,
	}
	f, err := NewFatTree(4, Options{
		Seed:     7,
		Speeds:   topo.DataCenterSpeeds,
		Hardware: Uniform(gen),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Every host resolving 8 peers pushes far more than 8 distinct
	// flow keys through each edge table: the envelope must evict.
	workload.ARPStorm(f.HostList(), 8)
	f.RunFor(2 * time.Second)

	var b strings.Builder
	var evictions int64
	for _, id := range f.Spec.Switches() {
		sw := f.Switches[id]
		ft := sw.FlowTable().Stats
		rs := sw.ResourceStats()
		evictions += ft.Evictions
		if n := sw.FlowTable().Len(); n > gen.FlowEntries {
			t.Errorf("%s holds %d flow entries, cap %d", sw.Name(), n, gen.FlowEntries)
		}
		fmt.Fprintf(&b, "%s: hits=%d misses=%d installs=%d evict=%d len=%d groups=%d members=%d degr=%d\n",
			sw.Name(), ft.Hits, ft.Misses, ft.Installs, ft.Evictions,
			sw.FlowTable().Len(), rs.GroupsLive, rs.MembersUsed, rs.Degrades)
	}
	if evictions == 0 {
		t.Fatalf("policy=%v: workload produced no evictions; the envelope is not under pressure", policy)
	}
	return b.String()
}

// TestEvictionDeterminism is the fabric-scope eviction-determinism
// gate the flowtable unit tests point at: under a bounded Generation,
// which flow entries get evicted and which destination classes lose
// group-table admission is a pure function of the seed. Each switch's
// eviction PRNG seeds from its own ID and its LRU order is driven only
// by its own traffic, so two builds must leave byte-identical
// per-switch hardware signatures, for both policies.
func TestEvictionDeterminism(t *testing.T) {
	for _, policy := range []flowtable.Policy{flowtable.EvictLRU, flowtable.EvictRandom} {
		first := evictionTrace(t, policy)
		if got := evictionTrace(t, policy); got != first {
			t.Errorf("policy=%v hardware signature differs between two builds: %s",
				policy, firstDiff(first, got))
		}
	}
}

// firstDiff renders the first diverging line of two traces.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  first:  %q\n  second: %q", i, al[i], bl[i])
		}
	}
	return fmt.Sprintf("prefix equal; lengths %d vs %d lines", len(al), len(bl))
}
