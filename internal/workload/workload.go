// Package workload generates the traffic patterns the PortLand
// evaluation uses: constant-rate UDP probe flows between host pairs
// (the convergence experiments), random permutation pairings, bulk
// TCP transfers, and ARP request storms (the fabric-manager
// scalability experiments).
package workload

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/ippkt"
	"portland/internal/metrics"
	"portland/internal/sim"
)

// Permutation returns a random permutation p of [0,n) with no fixed
// points (every sender gets a distinct receiver that isn't itself),
// using the derangement-by-rejection method.
func Permutation(r *rand.Rand, n int) []int {
	if n < 2 {
		return make([]int, n)
	}
	for {
		p := r.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// CBR is a constant-bit-rate UDP probe flow with an arrival recorder
// on the receiving side — the paper's convergence-measurement
// workload.
type CBR struct {
	Src, Dst *host.Host
	Port     uint16
	Interval time.Duration
	Size     int

	// RX records arrival times at the receiver.
	RX metrics.Recorder
	// Sent counts transmissions.
	Sent int64

	ticker  *sim.Ticker
	payload *ippkt.IPv4 // built once; probes are identical and read-only
}

// StartCBR begins a probe flow from src to dst at the given packet
// interval. Stop it with Stop. The sender's ticker runs on src's own
// scheduling stream, so other entities' activity cannot shift its
// ticks.
//
// Every probe is byte-identical, so the packet is built once and each
// tick sends a pool-backed frame sharing it — payloads are immutable
// along the forwarding path (switches rewrite only MAC headers), which
// is the same sharing every frame clone already relies on. At probe
// rates the convergence experiments run, this keeps the traffic
// source, not just the fabric, off the allocator.
func StartCBR(src, dst *host.Host, port uint16, interval time.Duration, size int) *CBR {
	c := &CBR{Src: src, Dst: dst, Port: port, Interval: interval, Size: size}
	c.payload = &ippkt.IPv4{
		TTL: 64, Protocol: ippkt.ProtoUDP, Src: src.IP(), Dst: dst.IP(),
		Payload: &ippkt.UDP{SrcPort: port, DstPort: port, Payload: ether.Raw(make([]byte, size))},
	}
	rxNow := dst.Sim().Now
	dst.Endpoint().BindUDP(port, func(_ netip.Addr, _ uint16, _ ether.Payload) {
		c.RX.Record(rxNow())
	})
	c.ticker = src.Sim().NewTicker(interval, interval, func() {
		c.Sent++
		src.Endpoint().SendIP(dst.IP(), ippkt.ProtoUDP, c.payload)
	})
	return c
}

// Stop halts the sender.
func (c *CBR) Stop() {
	if c.ticker != nil {
		c.ticker.Stop()
	}
}

// Loss returns the fraction of probes never delivered.
func (c *CBR) Loss() float64 {
	if c.Sent == 0 {
		return 0
	}
	return 1 - float64(c.RX.Len())/float64(c.Sent)
}

// PairCBRs starts one CBR flow per (src→dst) pairing of hosts through
// perm, using distinct UDP ports so every flow hashes independently.
func PairCBRs(hosts []*host.Host, perm []int, interval time.Duration, size int) []*CBR {
	flows := make([]*CBR, 0, len(perm))
	for i, j := range perm {
		port := uint16(20000 + i)
		flows = append(flows, StartCBR(hosts[i], hosts[j], port, interval, size))
	}
	return flows
}

// ARPStorm makes each host resolve `peers` distinct addresses chosen
// round-robin across the host list, flushing caches first so every
// resolution hits the fabric manager. It returns the number of
// resolutions initiated. Used to warm PMAC/flow state (Table 1) and
// to generate proxy-ARP load.
func ARPStorm(hosts []*host.Host, peers int) int {
	n := 0
	for i, h := range hosts {
		for d := 1; d <= peers && d < len(hosts); d++ {
			target := hosts[(i+d)%len(hosts)]
			h.FlushARP(target.IP())
			// A 1-byte UDP datagram forces ARP resolution.
			h.Endpoint().SendUDP(target.IP(), 9, 9, 1)
			n++
		}
	}
	return n
}
