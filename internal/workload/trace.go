package workload

import (
	"net/netip"
	"sort"
	"time"

	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/ippkt"
	"portland/internal/sim"
)

// Trace drives a sampled flow population through the fabric. All
// allocation happens at Start: per-flow packets are prebuilt (one
// IPv4+UDP header pair per flow sharing one payload buffer) and each
// source host replays its portion of the schedule from a single timer
// on its own scheduling stream. Steady-state sends ride the pooled
// frame path (host.Endpoint.SendIP), so once ARP caches are warm a
// running trace does not allocate — the same invariant the CBR probes
// and the end-to-end echo gate enforce.
//
// Counters are striped per host and written only from that host's
// scheduling stream.
type Trace struct {
	Specs []FlowSpec

	hosts    []*host.Host
	payloads []*ippkt.IPv4
	dstIP    []netip.Addr

	epoch  time.Duration  // sim time when the trace started
	events [][]traceEvent // per src host, time-sorted
	cursor []int
	timers []*sim.Timer

	sent      []int64 // per src host
	delivered []int64 // per dst host
}

type traceEvent struct {
	at   time.Duration
	flow int32
}

// StartTrace samples cfg.Flows flows over the placement and starts
// replaying them from the given hosts (indexed as in the placement).
// Flow starts are offsets from the current simulation time.
func StartTrace(cfg TraceConfig, place Placement, hosts []*host.Host) *Trace {
	t := &Trace{
		Specs:     make([]FlowSpec, cfg.Flows),
		hosts:     hosts,
		payloads:  make([]*ippkt.IPv4, cfg.Flows),
		dstIP:     make([]netip.Addr, cfg.Flows),
		events:    make([][]traceEvent, len(hosts)),
		cursor:    make([]int, len(hosts)),
		timers:    make([]*sim.Timer, len(hosts)),
		sent:      make([]int64, len(hosts)),
		delivered: make([]int64, len(hosts)),
	}
	raw := ether.Raw(make([]byte, cfg.PayloadBytes)) // shared, read-only
	perHost := make([]int, len(hosts))
	for i := range t.Specs {
		sp := cfg.Flow(place, i)
		t.Specs[i] = sp
		perHost[sp.Src] += sp.Packets
	}
	for h, n := range perHost {
		t.events[h] = make([]traceEvent, 0, n)
	}
	for i, sp := range t.Specs {
		src, dst := hosts[sp.Src], hosts[sp.Dst]
		t.dstIP[i] = dst.IP()
		t.payloads[i] = &ippkt.IPv4{
			TTL: 64, Protocol: ippkt.ProtoUDP, Src: src.IP(), Dst: dst.IP(),
			Payload: &ippkt.UDP{SrcPort: sp.SrcPort, DstPort: sp.DstPort, Payload: raw},
		}
		for j := 0; j < sp.Packets; j++ {
			t.events[sp.Src] = append(t.events[sp.Src],
				traceEvent{at: sp.Start + time.Duration(j)*cfg.PacketGap, flow: int32(i)})
		}
	}
	ports := cfg.DstPorts
	if ports < 1 {
		ports = 1
	}
	for h, hh := range hosts {
		h := h
		fn := func(_ netip.Addr, _ uint16, _ ether.Payload) { t.delivered[h]++ }
		for p := 0; p < ports; p++ {
			hh.Endpoint().BindUDP(cfg.BasePort+uint16(p), fn)
		}
	}
	if len(hosts) > 0 {
		t.epoch = hosts[0].Sim().Now()
	}
	for h := range hosts {
		evs := t.events[h]
		if len(evs) == 0 {
			continue
		}
		sort.SliceStable(evs, func(a, b int) bool { return evs[a].at < evs[b].at })
		h := h
		t.timers[h] = hosts[h].Sim().NewTimer(func() { t.fire(h) })
		t.timers[h].Reset(evs[0].at)
	}
	return t
}

// fire sends every packet of host h due at or before now, then re-arms
// for the next one. Runs on h's scheduling stream; allocation-free.
func (t *Trace) fire(h int) {
	due := t.hosts[h].Sim().Now() - t.epoch
	evs := t.events[h]
	cur := t.cursor[h]
	for cur < len(evs) && evs[cur].at <= due {
		f := evs[cur].flow
		t.sent[h]++
		t.hosts[h].Endpoint().SendIP(t.dstIP[f], ippkt.ProtoUDP, t.payloads[f])
		cur++
	}
	t.cursor[h] = cur
	if cur < len(evs) {
		t.timers[h].Reset(evs[cur].at - due)
	}
}

// Stop halts every source's replay timer.
func (t *Trace) Stop() {
	for _, tm := range t.timers {
		if tm != nil {
			tm.Stop()
		}
	}
}

// Sent returns packets transmitted so far across all sources.
func (t *Trace) Sent() int64 { return sum(t.sent) }

// Delivered returns packets received so far across all destinations.
func (t *Trace) Delivered() int64 { return sum(t.delivered) }

func sum(v []int64) (s int64) {
	for _, x := range v {
		s += x
	}
	return s
}
