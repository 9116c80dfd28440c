package sim

import (
	"fmt"
	"testing"
	"time"

	"portland/internal/ether"
)

func TestEngineOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	if n := e.Run(); n != 3 {
		t.Fatalf("ran %d events", n)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock %v", e.Now())
	}
}

// TestEngineTieBreakIsInsertionOrder pins the tie-break at one instant:
// root-stream events run in insertion order, and Proc events run in key
// order — a driver stream allocated first (rank 1) runs before a later
// entity whatever order they were scheduled in, each in its own issue
// order, and all of them after the root stream (rank 0).
func TestEngineTieBreakIsInsertionOrder(t *testing.T) {
	cases := []struct {
		name     string
		schedule func(e *Engine, log func(int) func())
		want     []int
	}{
		{"root", func(e *Engine, log func(int) func()) {
			for i := 0; i < 10; i++ {
				e.Schedule(time.Millisecond, log(i))
			}
		}, []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"driver-and-entity", func(e *Engine, log func(int) func()) {
			drv, ent := e.NewProc(), e.NewProc()
			ent.Schedule(time.Millisecond, log(3))
			drv.ScheduleAt(time.Millisecond, log(1))
			ent.ScheduleAt(time.Millisecond, log(4))
			e.Schedule(time.Millisecond, log(0))
			drv.NewTimer(log(2)).Reset(time.Millisecond)
		}, []int{0, 1, 2, 3, 4}},
	}
	for _, c := range cases {
		e := New(1)
		var order []int
		c.schedule(e, func(i int) func() { return func() { order = append(order, i) } })
		e.Run()
		if fmt.Sprint(order) != fmt.Sprint(c.want) {
			t.Errorf("%s: same-instant order %v, want %v", c.name, order, c.want)
		}
	}
}

func TestScheduleFromEvent(t *testing.T) {
	e := New(1)
	hits := 0
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() { hits++ })
	})
	e.Run()
	if hits != 1 || e.Now() != 2*time.Millisecond {
		t.Fatalf("hits=%d now=%v", hits, e.Now())
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	e := New(1)
	fired := false
	e.Schedule(5*time.Second, func() { fired = true })
	e.RunUntil(1 * time.Second)
	if fired {
		t.Fatal("future event fired early")
	}
	if e.Now() != 1*time.Second {
		t.Fatalf("clock %v after RunUntil", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if !fired || e.Now() != 10*time.Second {
		t.Fatalf("fired=%v now=%v", fired, e.Now())
	}
}

// TestDomainClockParking: when the queue empties before the deadline,
// RunUntil parks the clock at the deadline, and a repeated call with
// the same deadline leaves it there; Proc streams read the same clock.
func TestDomainClockParking(t *testing.T) {
	e := New(3)
	drv, ent := e.NewProc(), e.NewProc()
	arrived := false
	drv.Schedule(500*time.Microsecond, func() {
		ent.Schedule(time.Millisecond, func() { arrived = true })
	})
	for _, deadline := range []time.Duration{2 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond} {
		e.RunUntil(deadline)
		if !arrived || e.Pending() != 0 {
			t.Fatalf("arrived=%v pending=%d at %v, want the chain drained", arrived, e.Pending(), deadline)
		}
		for _, now := range []time.Duration{e.Now(), drv.Now(), ent.Now()} {
			if now != deadline {
				t.Fatalf("clock = %v, want it parked at %v", now, deadline)
			}
		}
	}
}

// TestDomainExclusiveDeadline: on the driver stream (the first Proc, as
// core.Build allocates it) RunUntil is inclusive at the deadline — the
// event stamped at the deadline fires and one a nanosecond later stays
// queued until the next call.
func TestDomainExclusiveDeadline(t *testing.T) {
	e := New(9)
	drv := e.NewProc()
	e.NewProc()
	var fired []time.Duration
	drv.ScheduleAt(5*time.Millisecond, func() { fired = append(fired, e.Now()) })
	drv.ScheduleAt(5*time.Millisecond+1, func() { fired = append(fired, e.Now()) })
	e.RunUntil(5 * time.Millisecond)
	if len(fired) != 1 || fired[0] != 5*time.Millisecond {
		t.Fatalf("fired = %v, want exactly the deadline-stamped event", fired)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the past-deadline event still queued", e.Pending())
	}
	e.RunUntil(6 * time.Millisecond)
	if len(fired) != 2 || fired[1] != 5*time.Millisecond+1 {
		t.Fatalf("past-deadline event never fired at its time: %v", fired)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New(1)
	p := e.NewProc()
	e.RunUntil(time.Second)
	var at []time.Duration
	stamp := func() { at = append(at, e.Now()) }
	e.Schedule(-5*time.Second, stamp)
	e.ScheduleAt(time.Millisecond, stamp)
	p.Schedule(-5*time.Second, stamp)
	p.ScheduleAt(time.Millisecond, stamp)
	e.Run()
	if len(at) != 4 || e.Now() != time.Second {
		t.Fatalf("ran %d of 4 events, clock %v", len(at), e.Now())
	}
	for i, got := range at {
		if got != time.Second {
			t.Fatalf("event %d ran at %v: a past time must run now, not in the past", i, got)
		}
	}
}

func TestStop(t *testing.T) {
	e := New(1)
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.Run()
	if n != 1 {
		t.Fatalf("Stop did not halt the loop: n=%d", n)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending=%d", e.Pending())
	}
}

func TestTimerStopAndReset(t *testing.T) {
	e := New(1)
	fires := 0
	tm := e.NewTimer(func() { fires++ })
	tm.Reset(10 * time.Millisecond)
	tm.Stop()
	e.Run()
	if fires != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(10 * time.Millisecond)
	tm.Reset(30 * time.Millisecond) // reschedule invalidates the first
	e.Run()
	if fires != 1 {
		t.Fatalf("timer fired %d times after double Reset", fires)
	}
	if e.Now() != 40*time.Millisecond {
		t.Fatalf("fired at %v, want 40ms", e.Now())
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTickerStop(t *testing.T) {
	e := New(1)
	ticks := 0
	var tk *Ticker
	tk = e.NewTicker(10*time.Millisecond, 0, func() {
		ticks++
		if ticks == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(time.Second)
	if ticks != 3 {
		t.Fatalf("ticks=%d", ticks)
	}
}

func TestTickerJitterWithinBound(t *testing.T) {
	e := New(7)
	var first time.Duration
	tk := e.NewTicker(10*time.Millisecond, 10*time.Millisecond, func() {
		if first == 0 {
			first = e.Now()
		}
	})
	e.RunUntil(50 * time.Millisecond)
	tk.Stop()
	if first <= 0 || first > 10*time.Millisecond {
		t.Fatalf("first jittered tick at %v", first)
	}
}

// node is a minimal sim.Node for link tests.
type node struct {
	name string
	got  []*ether.Frame
	at   []time.Duration
	eng  *Engine
}

func (n *node) Name() string      { return n.name }
func (n *node) Attach(int, *Link) {}
func (n *node) Start()            {}
func (n *node) HandleFrame(_ int, f *ether.Frame) {
	n.got = append(n.got, f)
	n.at = append(n.at, n.eng.Now())
}

func TestLinkDelivery(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	cfg := LinkConfig{Rate: 1e9, Delay: 5 * time.Microsecond, QueueFrames: 4}
	l := Connect(e, a, 0, b, 0, cfg)

	f := &ether.Frame{Type: ether.TypeIPv4, Payload: ether.Raw(make([]byte, 986))} // 1000B + 14 hdr
	l.Send(a, f)
	e.Run()
	if len(b.got) != 1 {
		t.Fatal("frame not delivered")
	}
	// 1004 bytes on the wire (incl FCS) at 1 Gbps = 8.032 µs + 5 µs.
	want := time.Duration(f.WireSize()*8) + 5*time.Microsecond
	if b.at[0] != want {
		t.Fatalf("arrival %v, want %v", b.at[0], want)
	}
}

func TestLinkSerializationQueuing(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e9, Delay: 0, QueueFrames: 10})
	for i := 0; i < 3; i++ {
		l.Send(a, &ether.Frame{Payload: ether.Raw(make([]byte, 986))})
	}
	e.Run()
	if len(b.at) != 3 {
		t.Fatalf("delivered %d/3", len(b.at))
	}
	ser := time.Duration(1004 * 8)
	for i, at := range b.at {
		if want := ser * time.Duration(i+1); at != want {
			t.Fatalf("frame %d arrived %v, want %v (store-and-forward)", i, at, want)
		}
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e6, Delay: 0, QueueFrames: 2})
	for i := 0; i < 5; i++ {
		l.Send(a, &ether.Frame{Payload: ether.Raw(make([]byte, 100))})
	}
	e.Run()
	if len(b.got) != 2 || l.Drops() != 3 {
		t.Fatalf("delivered=%d drops=%d, want 2/3", len(b.got), l.Drops())
	}
	if l.QueueDrops() != 3 || l.LossDrops() != 0 || l.DownDrops() != 0 {
		t.Fatalf("drop causes queue=%d loss=%d down=%d, want 3/0/0",
			l.QueueDrops(), l.LossDrops(), l.DownDrops())
	}
}

// Drops is the sum of per-cause counters; each loss mechanism must
// charge its own counter so experiments can tell congestion from
// faults from injected bit errors.
func TestLinkDropAccountingByCause(t *testing.T) {
	e := New(7)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueFrames: 8, LossRate: 0.5})
	for i := 0; i < 64; i++ {
		l.Send(a, &ether.Frame{Payload: ether.Raw("x")})
	}
	e.Run()
	l.SetUp(false)
	l.Send(a, &ether.Frame{Payload: ether.Raw("y")})
	e.Run()
	if l.LossDrops() == 0 {
		t.Fatal("LossRate drops not charged to LossDrops")
	}
	if l.DownDrops() != 1 {
		t.Fatalf("DownDrops=%d, want 1", l.DownDrops())
	}
	if l.Drops() != l.QueueDrops()+l.LossDrops()+l.DownDrops() {
		t.Fatalf("Drops=%d is not the sum of causes %d+%d+%d",
			l.Drops(), l.QueueDrops(), l.LossDrops(), l.DownDrops())
	}
	if int64(len(b.got))+l.Drops() != 65 {
		t.Fatal("conservation violated")
	}
}

func TestLinkDownDropsInFlight(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e9, Delay: time.Millisecond, QueueFrames: 8})
	l.Send(a, &ether.Frame{Payload: ether.Raw("x")})
	e.Schedule(100*time.Microsecond, func() { l.SetUp(false) })
	e.Run()
	if len(b.got) != 0 {
		t.Fatal("in-flight frame survived link failure")
	}
	// Down link swallows new frames silently.
	l.Send(a, &ether.Frame{Payload: ether.Raw("y")})
	e.Run()
	if len(b.got) != 0 {
		t.Fatal("down link delivered")
	}
	// Recovery.
	l.SetUp(true)
	l.Send(a, &ether.Frame{Payload: ether.Raw("z")})
	e.Run()
	if len(b.got) != 1 {
		t.Fatal("restored link did not deliver")
	}
}

func TestLinkFullDuplex(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 8})
	l.Send(a, &ether.Frame{Payload: ether.Raw("ab")})
	l.Send(b, &ether.Frame{Payload: ether.Raw("ba")})
	e.Run()
	if len(a.got) != 1 || len(b.got) != 1 {
		t.Fatal("full duplex broken")
	}
	// Directions must not share the transmitter: both arrive at the
	// same instant.
	if a.at[0] != b.at[0] {
		t.Fatalf("asymmetric delivery: %v vs %v", a.at[0], b.at[0])
	}
}

func TestLinkPeerAndPorts(t *testing.T) {
	e := New(1)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 3, b, 7, LinkConfig{Rate: 1e9, QueueFrames: 1})
	if p, port := l.Peer(a); p != b || port != 7 {
		t.Fatal("Peer(a)")
	}
	if p, port := l.Peer(b); p != a || port != 3 {
		t.Fatal("Peer(b)")
	}
	if l.LocalPort(a) != 3 || l.LocalPort(b) != 7 {
		t.Fatal("LocalPort")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		e := New(99)
		a := &node{name: "a", eng: e}
		b := &node{name: "b", eng: e}
		l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e9, Delay: time.Microsecond, QueueFrames: 64})
		e.NewTicker(time.Duration(e.Rand().Int64N(1000))+1, 0, func() {
			l.Send(a, &ether.Frame{Payload: ether.Raw(make([]byte, e.Rand().IntN(100)+1))})
		})
		e.RunUntil(time.Millisecond)
		return b.at
	}
	x, y := run(), run()
	if len(x) != len(y) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(x), len(y))
	}
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("non-deterministic timing at %d: %v vs %v", i, x[i], y[i])
		}
	}
}

func TestLinkLossRate(t *testing.T) {
	e := New(5)
	a := &node{name: "a", eng: e}
	b := &node{name: "b", eng: e}
	l := Connect(e, a, 0, b, 0, LinkConfig{Rate: 1e12, Delay: 0, QueueFrames: 1 << 20, LossRate: 0.25})
	const n = 4000
	for i := 0; i < n; i++ {
		l.Send(a, &ether.Frame{Payload: ether.Raw("x")})
	}
	e.Run()
	loss := float64(l.Drops()) / n
	if loss < 0.2 || loss > 0.3 {
		t.Fatalf("loss rate %.3f, want ~0.25", loss)
	}
	if len(b.got)+int(l.Drops()) != n {
		t.Fatal("conservation violated")
	}
}
