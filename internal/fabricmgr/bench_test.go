package fabricmgr

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"testing"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
)

// benchConn swallows manager replies; the benchmarks measure service
// cost, not transport.
type benchConn struct{}

func (benchConn) Send(ctrlmsg.Msg) error { return nil }
func (benchConn) Close() error           { return nil }
func (benchConn) Stats() ctrlnet.Stats   { return ctrlnet.Stats{} }
func (benchConn) Err() error             { return nil }

// benchIP is the i-th synthetic host address, matching the Figure 14
// convention.
func benchIP(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

// shardedRegistry builds n shard managers holding a registry of the
// given total size, striped by ctrlmsg.ShardOfIP exactly as the edge
// switches stripe their punts, and returns each shard's session plus
// the IP list it owns.
func shardedRegistry(n, registry int) ([]*Session, [][]netip.Addr) {
	sess := make([]*Session, n)
	ips := make([][]netip.Addr, n)
	for s := 0; s < n; s++ {
		m := New()
		m.SetShard(s, n)
		sess[s] = m.NewSession(benchConn{})
		sess[s].Handle(ctrlmsg.Hello{Switch: 1})
	}
	for i := 0; i < registry; i++ {
		ip := benchIP(i)
		s := ctrlmsg.ShardOfIP(ip, n)
		sess[s].Handle(ctrlmsg.PMACRegister{Switch: 1, IP: ip, AMAC: ether.Addr{2, 0, 0, 0, 0, 1}, PMAC: ether.Addr{0, 1, 0, 0, 0, 1}})
		ips[s] = append(ips[s], ip)
	}
	return sess, ips
}

// BenchmarkMgrARPThroughput measures wall-clock ARP resolutions per
// second against a prefix-sharded registry: each shard serves its own
// query stream on its own goroutine (shards share nothing, so this is
// the managers' true concurrent service rate). ns/op is the aggregate
// per-query cost. The per-row `shards` and `workers` metrics record
// how much parallelism the run actually had — on a single-core host
// the sharded rows measure partition overhead, not speedup; on a
// multi-core host workers = min(GOMAXPROCS, shards) and
// the sharded rows show the fan-out win. The hosts axis is the
// registry size: the paper's 27,648-host deployment target and a
// quarter-million-host scale point.
func BenchmarkMgrARPThroughput(b *testing.B) {
	for _, hosts := range []int{27648, 262144} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("hosts=%d/shards=%d", hosts, shards), func(b *testing.B) {
				sess, ips := shardedRegistry(shards, hosts)
				per := (b.N + shards - 1) / shards
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for s := 0; s < shards; s++ {
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						own := ips[s]
						for j := 0; j < per; j++ {
							sess[s].Handle(ctrlmsg.ARPQuery{Switch: 1, QueryID: uint64(j), TargetIP: own[j%len(own)]})
						}
					}(s)
				}
				wg.Wait()
				b.StopTimer()
				served := float64(per) * float64(shards)
				b.ReportMetric(float64(shards), "shards")
				b.ReportMetric(float64(min(runtime.GOMAXPROCS(0), shards)), "workers")
				b.ReportMetric(served/b.Elapsed().Seconds(), "resolutions/s")
			})
		}
	}
}

// BenchmarkFaultFanout measures the route authority's exclusion
// fan-out: one fail+restore cycle of an agg-core link on the hand-wired
// two-pod topology, timed end to end (fault merge, reachability
// recompute, exclusion diff, push to every affected switch). The shard
// axis pins the design claim that prefix-sharding the registry leaves
// fault convergence untaxed: shard 0 alone carries the fault matrix,
// so the cost must stay flat as shards grow.
//
// The k axis runs the same cycle on a bare manager fed the full
// adjacency of topo.FatTree(k) (k=48 is the paper's 27,648-host
// target, 55,296 switch links): recompute cost must follow the
// switches' degree, not the size of the link table.
func BenchmarkFaultFanout(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			r := newRig(b)
			r.m.SetShard(0, shards)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.fail(3, 2, 9, 0)
				r.restore(3, 2, 9, 0)
			}
			b.StopTimer()
			b.ReportMetric(float64(shards), "shards")
			b.ReportMetric(float64(r.m.Stats.ExclusionsSet)/float64(b.N), "excl/op")
		})
	}
	for _, k := range []int{16, 48} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			r := newFatTreeRig(b, k,
				func(ctrlmsg.SwitchID) ctrlnet.Conn { return benchConn{} },
				func(ctrlmsg.SwitchID) bool { return false })
			l := r.aggCoreLink()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.flip(l, true)
				r.flip(l, false)
			}
			b.StopTimer()
			b.ReportMetric(float64(r.m.Stats.ExclusionsSet)/float64(b.N), "excl/op")
		})
	}
}
