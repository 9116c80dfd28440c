package sim

import (
	"fmt"
	"time"

	"portland/internal/ether"
)

// Node is anything attachable to links: a switch or a host.
type Node interface {
	// Name returns a stable human-readable identifier for traces.
	Name() string
	// Attach informs the node that port carries the given link.
	// Called once per port during wiring, before Start.
	Attach(port int, l *Link)
	// HandleFrame delivers a frame that arrived on port.
	HandleFrame(port int, f *ether.Frame)
	// Start schedules the node's initial protocol events.
	Start()
}

// LinkConfig sets the physical properties of a link. The zero value is
// replaced by DefaultLinkConfig.
type LinkConfig struct {
	// Rate is the line rate in bits per second.
	Rate int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// QueueFrames caps each direction's egress queue (drop-tail).
	QueueFrames int
	// LossRate drops each frame independently with this probability
	// (deterministic given the engine seed). Zero for clean links;
	// protocol-robustness tests use it to shake out assumptions of
	// reliable delivery.
	LossRate float64
}

// DefaultLinkConfig models a 1 GbE data-center cable run.
var DefaultLinkConfig = LinkConfig{
	Rate:        1e9,
	Delay:       1 * time.Microsecond,
	QueueFrames: 128,
}

// WithRate returns a copy of the config at a different line rate,
// keeping delay/queue/loss. Topology builders use it to apply per-link
// rate classes (topo.RateClass) over one fabric-wide base config; a
// zero rate returns the config unchanged.
func (c LinkConfig) WithRate(bps int64) LinkConfig {
	if bps > 0 {
		c.Rate = bps
	}
	return c
}

// SerializationDelay returns the time the link's transmitter occupies
// the wire for a frame of the given size — the per-hop cost that makes
// a 40G port four times slower than a 160G one for the same bytes.
// This is exactly the term Send charges; exported so experiments can
// report expected per-hop costs per rate class.
func (c LinkConfig) SerializationDelay(wireBytes int) time.Duration {
	if c.Rate <= 0 {
		return 0
	}
	return time.Duration(int64(wireBytes) * 8 * int64(time.Second) / c.Rate)
}

// DirStats counts one direction's per-cause outcomes. A receiver that
// samples the stats of the direction delivering to it sees exactly
// what its NIC would count: frames that made it (Delivered) and frames
// corrupted on the wire (LossDrops, GrayDrops). QueueDrops happen at
// the sender's egress and DownDrops only while the link is
// administratively down — neither is a wire error.
type DirStats struct {
	// Delivered counts frames handed to this direction's receiver.
	Delivered int64
	// QueueDrops counts drop-tail losses at the sender's egress queue.
	QueueDrops int64
	// LossDrops counts frames discarded by the random LossRate coin.
	LossDrops int64
	// GrayDrops counts frames discarded by the gray-failure rate set
	// via SetGrayLoss while the link stayed administratively up.
	GrayDrops int64
	// DownDrops counts frames discarded because the link was down.
	DownDrops int64
}

// Link is a full-duplex point-to-point link between two node ports.
// Each direction has an independent transmitter with a FIFO drop-tail
// queue; a frame occupies the transmitter for size/rate seconds and is
// delivered Delay later. Links can be administratively or
// failure-injected down, which silently discards frames — exactly what
// higher layers must detect via LDP timeouts.
//
// Each direction owns a Proc: its delivery events carry that stream's
// keys, and wire-loss coins are flipped at delivery time from it
// (physically, corruption is observed by the receiver's CRC check), so
// a link's draws never depend on what the rest of the fabric does.
type Link struct {
	cfg LinkConfig
	eng *Engine

	a, b endpoint
	ab   direction // a transmits to b
	ba   direction // b transmits to a

	up bool

	// Tap, if non-nil, observes every frame the moment it is
	// delivered to a receiver (after queueing and propagation). The
	// frame is valid only for the duration of the call; taps must not
	// retain it (delivered frames may return to the engine's pool).
	Tap func(f *ether.Frame)
}

type endpoint struct {
	node Node
	port int
}

// direction is one transmitter of a full-duplex link. It owns the
// frames serialized onto the wire: delivery events fire in (at, seq)
// order, and this direction schedules them with non-decreasing times
// and increasing seq, so the in-flight frames form a FIFO — the
// delivery event carries only the direction pointer and the frame is
// popped from the ring when it fires. (Storing the frame in the event
// itself would fatten every heap entry; see sim.event.)
type direction struct {
	link      *Link
	toB       bool // this direction delivers to endpoint b
	busyUntil time.Duration
	queued    int // frames in the ring == scheduled, undelivered

	// proc is the direction's scheduling identity: it keys delivery
	// events and draws the delivery-time wire-loss coins.
	proc *Proc

	// grayRate drops each non-LDP frame independently with this
	// probability while the link is up. LDP keepalives are tiny and
	// survive the corruption modes gray failures model (dirty optics,
	// shallow-buffer ASIC faults), so they pass — exactly the
	// liveness-protocol blind spot the detector exists for.
	grayRate float64

	// stats tallies the direction's per-cause outcomes.
	stats DirStats

	// serEnds tracks the serialization-end time of every frame the
	// transmitter has accepted: the egress queue occupancy at time t
	// is the count of entries > t.
	serEnds []time.Duration
	serHead int
	serLen  int

	// inflight is a circular buffer of queued frames; head indexes the
	// oldest. Capacity grows on demand and is reused thereafter, so
	// steady-state sends allocate nothing.
	inflight []*ether.Frame
	head     int
}

// pushFrame appends f to the in-flight ring, growing it if full. Ring
// sizes are powers of two; wrap is a mask (once per frame hop).
func (d *direction) pushFrame(f *ether.Frame) {
	if d.queued == len(d.inflight) {
		grown := make([]*ether.Frame, max(8, 2*len(d.inflight)))
		for i := 0; i < d.queued; i++ {
			grown[i] = d.inflight[(d.head+i)&(len(d.inflight)-1)]
		}
		d.inflight, d.head = grown, 0
	}
	d.inflight[(d.head+d.queued)&(len(d.inflight)-1)] = f
	d.queued++
}

// popFrame removes and returns the oldest in-flight frame.
func (d *direction) popFrame() *ether.Frame {
	f := d.inflight[d.head]
	d.inflight[d.head] = nil
	d.head = (d.head + 1) & (len(d.inflight) - 1)
	d.queued--
	return f
}

// pushSer records a frame leaving the egress queue at time t (its
// serialization end), growing the ring if full. Ring sizes are always
// powers of two, so index wrap is a mask — this path runs once per
// transmitted frame and shows up in steady-state profiles.
func (d *direction) pushSer(t time.Duration) {
	if d.serLen == len(d.serEnds) {
		grown := make([]time.Duration, max(8, 2*len(d.serEnds)))
		for i := 0; i < d.serLen; i++ {
			grown[i] = d.serEnds[(d.serHead+i)&(len(d.serEnds)-1)]
		}
		d.serEnds, d.serHead = grown, 0
	}
	d.serEnds[(d.serHead+d.serLen)&(len(d.serEnds)-1)] = t
	d.serLen++
}

// reapSer drops queue entries fully serialized by time now.
func (d *direction) reapSer(now time.Duration) {
	for d.serLen > 0 && d.serEnds[d.serHead] <= now {
		d.serHead = (d.serHead + 1) & (len(d.serEnds) - 1)
		d.serLen--
	}
}

// Connect wires (an,ap) to (bn,bp) with cfg on engine e and attaches
// both sides. Each direction gets its own Proc, the one delivering to
// bn first.
func Connect(e *Engine, an Node, ap int, bn Node, bp int, cfg LinkConfig) *Link {
	if cfg.Rate == 0 {
		cfg = DefaultLinkConfig
	}
	l := &Link{cfg: cfg, eng: e, a: endpoint{an, ap}, b: endpoint{bn, bp}, up: true}
	l.ab = direction{link: l, toB: true, proc: e.NewProc()}
	l.ba = direction{link: l, proc: e.NewProc()}
	an.Attach(ap, l)
	bn.Attach(bp, l)
	return l
}

// Up reports whether the link is passing frames.
func (l *Link) Up() bool { return l.up }

// SetUp raises or fails the link. Frames already queued or in flight
// when the link goes down are lost (their delivery events notice the
// down state and count the drop).
func (l *Link) SetUp(up bool) {
	l.up = up
}

// dirTo returns the direction that delivers frames to n.
func (l *Link) dirTo(n Node) *direction {
	switch n {
	case l.b.node:
		return &l.ab
	case l.a.node:
		return &l.ba
	default:
		panic(fmt.Sprintf("sim: node %s not on link %s", n.Name(), l))
	}
}

// SetGrayLoss injects (or clears, with rate 0) a gray failure: each
// direction independently drops the given fraction of non-LDP frames
// while the link remains administratively up. rateToA applies to
// frames delivered toward the endpoint passed first to Connect,
// rateToB toward the second.
func (l *Link) SetGrayLoss(rateToA, rateToB float64) {
	l.ba.grayRate = rateToA
	l.ab.grayRate = rateToB
}

// GrayLoss reports the current gray-loss rates (toward a, toward b).
func (l *Link) GrayLoss() (rateToA, rateToB float64) {
	return l.ba.grayRate, l.ab.grayRate
}

// RxStats returns the per-cause counters of the direction delivering
// to n — what n's NIC would observe on this port.
func (l *Link) RxStats(n Node) DirStats { return l.dirTo(n).stats }

// RxWireErrs returns the cumulative wire-error count (loss + gray
// drops) of the direction delivering to n — exactly what n's NIC CRC
// check counts.
func (l *Link) RxWireErrs(n Node) int64 {
	s := &l.dirTo(n).stats
	return s.LossDrops + s.GrayDrops
}

// Delivered returns frames handed to a receiver, both directions.
func (l *Link) Delivered() int64 { return l.ab.stats.Delivered + l.ba.stats.Delivered }

// QueueDrops returns drop-tail losses at either egress queue.
func (l *Link) QueueDrops() int64 { return l.ab.stats.QueueDrops + l.ba.stats.QueueDrops }

// LossDrops returns frames discarded by the random LossRate coin.
func (l *Link) LossDrops() int64 { return l.ab.stats.LossDrops + l.ba.stats.LossDrops }

// GrayDrops returns frames discarded by a gray-loss rate (SetGrayLoss)
// while the link stayed administratively up — the failure mode LDP
// keepalives cannot see.
func (l *Link) GrayDrops() int64 { return l.ab.stats.GrayDrops + l.ba.stats.GrayDrops }

// DownDrops returns frames discarded because the link was down, either
// at send time or while in flight.
func (l *Link) DownDrops() int64 { return l.ab.stats.DownDrops + l.ba.stats.DownDrops }

// Drops returns every lost frame — the sum of the per-cause counters.
func (l *Link) Drops() int64 {
	return l.QueueDrops() + l.LossDrops() + l.GrayDrops() + l.DownDrops()
}

// Peer returns the node and port on the far side from n.
func (l *Link) Peer(n Node) (Node, int) {
	if l.a.node == n {
		return l.b.node, l.b.port
	}
	return l.a.node, l.a.port
}

// LocalPort returns n's own port number on this link.
func (l *Link) LocalPort(n Node) int {
	if l.a.node == n {
		return l.a.port
	}
	return l.b.port
}

// Config returns the link's physical configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Send transmits f from node "from" toward the peer. It models
// store-and-forward serialization and propagation; the frame is either
// queued for transmission or dropped (full queue / link down).
func (l *Link) Send(from Node, f *ether.Frame) {
	var dir *direction
	switch from {
	case l.a.node:
		dir = &l.ab
	case l.b.node:
		dir = &l.ba
	default:
		panic(fmt.Sprintf("sim: node %s not on link %s<->%s", from.Name(), l.a.node.Name(), l.b.node.Name()))
	}
	e := l.eng
	if !l.up {
		dir.stats.DownDrops++
		e.pool.Put(f)
		return
	}
	dir.reapSer(e.now)
	// LDP keepalives ride a strict-priority control class that is never
	// tail-dropped: real switches schedule control traffic above the
	// data class, so congestion must not masquerade as a dead neighbor.
	// (Detector probes deliberately stay in the data class — they exist
	// to experience what data experiences.)
	if dir.serLen >= l.cfg.QueueFrames && f.Type != ether.TypeLDP {
		dir.stats.QueueDrops++
		e.pool.Put(f)
		return
	}
	start := e.now
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	dir.busyUntil = start + l.cfg.SerializationDelay(f.WireSize())
	dir.pushSer(dir.busyUntil)
	dir.pushFrame(f)
	e.enqueue(event{at: dir.busyUntil + l.cfg.Delay, seq: dir.proc.key(), dir: dir})
}

// deliver completes the oldest in-flight frame on dir: it runs from
// the engine's event loop as a value-typed delivery event (no
// per-frame closure; see sim.event). Wire-corruption coins are drawn
// here, from the direction's own stream, in delivery order.
func (l *Link) deliver(dir *direction) {
	f := dir.popFrame()
	dst := l.a
	if dir.toB {
		dst = l.b
	}
	pool := &l.eng.pool
	if !l.up { // failed while in flight
		dir.stats.DownDrops++
		pool.Put(f)
		return
	}
	if l.cfg.LossRate > 0 && dir.proc.rng.Float64() < l.cfg.LossRate {
		dir.stats.LossDrops++
		pool.Put(f)
		return
	}
	if dir.grayRate > 0 && f.Type != ether.TypeLDP && dir.proc.rng.Float64() < dir.grayRate {
		dir.stats.GrayDrops++
		pool.Put(f)
		return
	}
	dir.stats.Delivered++
	if l.Tap != nil {
		l.Tap(f)
	}
	dst.node.HandleFrame(dst.port, f)
}

// String identifies the link by its endpoints.
func (l *Link) String() string {
	return fmt.Sprintf("%s[%d]<->%s[%d]", l.a.node.Name(), l.a.port, l.b.node.Name(), l.b.port)
}
