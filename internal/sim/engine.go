// Package sim is a deterministic discrete-event network simulator.
//
// All protocol code in this repository runs on virtual time: an Engine
// owns a monotone clock and an event queue, and every link, timer and
// timeout is an event. Runs are reproducible — every PRNG stream is
// seeded explicitly and ties between simultaneous events are broken by
// a per-entity key (see proc.go).
package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"portland/internal/ether"
)

// event is a scheduled callback or, when dir is non-nil, a value-typed
// frame-delivery record. Frame deliveries are by far the most common
// event in a packet-rate-bound run; representing them in the queue
// entry means a frame in flight costs no per-frame closure allocation
// (previously Link.Send captured link state in a fresh closure for
// every frame). The frame itself is NOT stored here: deliveries for a
// link direction fire in FIFO order, so the direction keeps its own
// in-flight ring and the event carries only the direction pointer.
// Keeping the event at four words matters — the due heap swaps events
// by value, and a fatter struct measurably slows every Schedule/Run.
type event struct {
	at  time.Duration
	seq uint64 // tie-break key (see proc.go)
	fn  func()
	dir *direction // frame-delivery variant (fn is nil)
}

// fire executes the event.
func (ev *event) fire() {
	if ev.dir != nil {
		ev.dir.link.deliver(ev.dir)
		return
	}
	ev.fn()
}

// eventHeap is a binary min-heap ordered by (at, seq), stored by value
// with index-based swaps: push and pop allocate nothing beyond
// amortized slice growth. It serves two roles: the wheel's "due" stage
// (events whose tick has been reached, ordered exactly) and the
// reference implementation the differential-ordering tests shadow the
// wheel against.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if r := kid + 1; r < n && h.less(r, kid) {
			kid = r
		}
		if !h.less(kid, i) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	h.siftUp(len(*h) - 1)
}

// pop removes and returns the earliest event. The vacated tail slot is
// zeroed so the spare capacity does not keep the callback closure (and
// everything it captures) reachable after execution.
func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{}
	*h = old[:n]
	(*h).siftDown(0)
	return top
}

// The hierarchical timer wheel's geometry. Virtual time is quantized
// into ticks of 2^tickShift nanoseconds (1.024 µs — below one link
// serialization+delay hop, so co-bucketed events are genuinely near
// each other). Each of the wheelLevels levels holds wheelSlots buckets;
// a level-l bucket spans wheelSlots^l ticks, so the wheels cover
// deltas up to wheelSlots^wheelLevels ticks (~13 days of virtual time)
// and anything beyond parks in the overflow list.
const (
	tickShift   = 10
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits // 256
	wheelMask   = wheelSlots - 1
	wheelLevels = 5
	wheelWords  = wheelSlots / 64
	// horizonTicks is the first delta the wheels cannot hold.
	horizonTicks = uint64(1) << (wheelLevels * wheelBits)
)

// wheelNode is one wheel-resident event plus its intrusive list link.
// Bucket membership is a singly linked list of indices into a single
// grow-only arena: buckets never own slice capacity of their own, so
// slot churn (the same 256 slots are reused forever as time advances)
// costs no allocation once the arena has reached the workload's
// high-water mark.
type wheelNode struct {
	ev   event
	next int32 // arena index of the next node in the bucket, -1 at the tail
}

// Engine is a discrete-event executor with a virtual clock.
// The zero value is not usable; construct with New.
//
// The queue is a hierarchical timer wheel in front of a small binary
// heap. Events whose tick is <= base sit in the "due" heap, ordered
// exactly by (at, seq); later events hash into the wheel bucket that
// spans their tick, and advance() moves base forward bucket by bucket,
// cascading coarse buckets into finer ones, so that every event passes
// through the due heap before it fires. Pop order is therefore
// identical to a single global (at, seq) heap — the property every
// golden replay in this repository depends on — while Schedule stays
// O(1) instead of O(log pending). See DESIGN.md §8.
type Engine struct {
	now     time.Duration
	seq     uint64
	rng     *rand.Rand
	stopped bool

	// due holds events already orderable for execution: exactly those
	// with tick(at) <= base. Sub-tick ordering comes from the heap.
	due    eventHeap
	queued int // total events across due, wheels and overflow

	base  uint64                          // wheel position, in ticks
	heads [wheelLevels][wheelSlots]int32  // bucket list heads (arena indices)
	occ   [wheelLevels][wheelWords]uint64 // bucket occupancy bitmaps
	nodes []wheelNode                     // arena backing every bucket list
	free  int32                           // arena free-list head, -1 when empty

	// overflow parks events beyond the wheels' horizon (~13 virtual
	// days out); overflowMin tracks the earliest parked tick.
	overflow    []event
	overflowMin uint64

	// shadow, when non-nil, mirrors every insert into a plain binary
	// heap and cross-checks every pop against it. Test-only: the
	// differential-ordering tests use it to prove the wheel pops the
	// exact (at, seq) sequence the retired heap scheduler produced.
	shadow *eventHeap

	// pool is the engine-local frame free-list; everything wired to
	// this engine shares it, and nothing outside this engine ever
	// touches it (the determinism-under-parallelism contract).
	pool ether.FramePool

	// seed and nextRank allocate entity tie-break ranks and derive
	// their PRNG streams (see proc.go).
	seed     uint64
	nextRank uint64
}

// New returns an engine whose PRNG is seeded with seed.
func New(seed uint64) *Engine {
	return &Engine{
		rng:      rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		free:     -1,
		seed:     seed,
		nextRank: 1,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Rand returns the engine's deterministic PRNG.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule runs fn after delay d of virtual time. A negative d is
// treated as zero (run at the current instant, after already-queued
// events for this instant).
func (e *Engine) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.ScheduleAt(e.now+d, fn)
}

// ScheduleAt runs fn at absolute virtual time t (clamped to now).
func (e *Engine) ScheduleAt(t time.Duration, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.enqueue(event{at: t, seq: e.seq, fn: fn})
}

// enqueue files an event into the stage its tick belongs to.
func (e *Engine) enqueue(ev event) {
	if e.shadow != nil {
		e.shadow.push(ev)
	}
	e.queued++
	if t := uint64(ev.at) >> tickShift; t > e.base {
		e.wheelPush(ev, t)
	} else {
		e.due.push(ev)
	}
}

// wheelPush files an event with tick t > base into the bucket spanning
// t: level l covers deltas in [wheelSlots^l, wheelSlots^(l+1)), and the
// slot within a level is the tick's l-th base-wheelSlots digit.
func (e *Engine) wheelPush(ev event, t uint64) {
	var l uint
	switch d := t - e.base; {
	case d < 1<<wheelBits:
		l = 0
	case d < 1<<(2*wheelBits):
		l = 1
	case d < 1<<(3*wheelBits):
		l = 2
	case d < 1<<(4*wheelBits):
		l = 3
	case d < 1<<(5*wheelBits):
		l = 4
	default:
		if len(e.overflow) == 0 || t < e.overflowMin {
			e.overflowMin = t
		}
		e.overflow = append(e.overflow, ev)
		return
	}
	i := e.free
	if i >= 0 {
		e.free = e.nodes[i].next
	} else {
		e.nodes = append(e.nodes, wheelNode{})
		i = int32(len(e.nodes) - 1)
	}
	s := int(t>>(l*wheelBits)) & wheelMask
	n := &e.nodes[i]
	n.ev = ev
	w, b := s>>6, uint64(1)<<(s&63)
	if e.occ[l][w]&b != 0 {
		n.next = e.heads[l][s]
	} else {
		n.next = -1
		e.occ[l][w] |= b
	}
	e.heads[l][s] = i
}

// nextSet returns the first occupied slot >= from at level l, or -1.
func (e *Engine) nextSet(l uint, from int) int {
	w := from >> 6
	m := ^uint64(0) << uint(from&63)
	for ; w < wheelWords; w++ {
		if v := e.occ[l][w] & m; v != 0 {
			return w<<6 + bits.TrailingZeros64(v)
		}
		m = ^uint64(0)
	}
	return -1
}

// drain empties bucket (l, s), re-filing each event: ticks that base
// has reached go to the due heap, later ones re-hash into a finer
// bucket. Nodes return to the arena free list with their event slot
// zeroed so spare arena capacity never pins an executed closure.
func (e *Engine) drain(l uint, s int) {
	e.occ[l][s>>6] &^= 1 << uint(s&63)
	i := e.heads[l][s]
	for i >= 0 {
		n := &e.nodes[i]
		ev, next := n.ev, n.next
		n.ev = event{}
		n.next = e.free
		e.free = i
		// n is dead past this point: wheelPush may grow the arena.
		if t := uint64(ev.at) >> tickShift; t > e.base {
			e.wheelPush(ev, t)
		} else {
			e.due.push(ev)
		}
		i = next
	}
}

// refileOverflow re-files every parked event against the current base.
// Events still beyond the horizon re-park (wheelPush appends them back
// while the loop reads earlier indices of the same backing array, which
// is safe: the write index never passes the read index).
func (e *Engine) refileOverflow() {
	items := e.overflow
	e.overflow = e.overflow[:0]
	for idx := range items {
		ev := items[idx]
		if t := uint64(ev.at) >> tickShift; t > e.base {
			e.wheelPush(ev, t)
		} else {
			e.due.push(ev)
		}
	}
	// Zero the vacated tail so re-parked spare capacity does not keep
	// moved closures reachable.
	clear(items[len(e.overflow):])
}

// advance moves base forward to the next occupied tick and drains it
// into the due heap. Correctness rests on two invariants maintained
// everywhere base moves: (1) events with tick <= base are always in
// due, so the heap alone orders everything ready to fire; (2) a bucket
// whose span strictly contains base is empty (its events were drained
// when base entered the span), so the earliest span start over all
// occupied buckets is a lower bound on every wheel event — jumping
// base there can never skip an event.
func (e *Engine) advance() {
	for len(e.due) == 0 {
		// Fast path: the nearest occupied level-0 bucket in the current
		// 256-tick block, if any, is globally earliest — higher-level
		// buckets start at block boundaries at or beyond this block's
		// end, and the overflow horizon is further still.
		p0 := int(e.base) & wheelMask
		if j := e.nextSet(0, p0); j >= 0 {
			e.base = e.base&^uint64(wheelMask) | uint64(j)
			e.drain(0, j)
			continue
		}
		// Slow path: earliest occupied bucket span across all levels,
		// considering both the rest of each level's current window and
		// its wrapped (next-window) slots.
		best, bestOK := uint64(0), false
		for l := uint(0); l < wheelLevels; l++ {
			p := int(e.base>>(l*wheelBits)) & wheelMask
			winSize := uint64(1) << ((l + 1) * wheelBits)
			winStart := e.base &^ (winSize - 1)
			j, w := e.nextSet(l, p), winStart
			if j < 0 {
				j, w = e.nextSet(l, 0), winStart+winSize
			}
			if j < 0 {
				continue
			}
			if cand := w | uint64(j)<<(l*wheelBits); !bestOK || cand < best {
				best, bestOK = cand, true
			}
		}
		if !bestOK {
			// Wheels empty: everything queued is parked in overflow.
			e.base = e.overflowMin
			e.refileOverflow()
			continue
		}
		if len(e.overflow) > 0 && e.overflowMin <= best {
			// Base has advanced enough that parked events are no longer
			// provably later than the wheels' earliest; re-file them.
			// (Candidates are < base+horizon, so the minimum parked
			// event fits in a wheel now — progress is guaranteed.)
			e.refileOverflow()
			continue
		}
		e.base = best
		// Cascade every bucket whose span begins exactly at the new
		// base, coarsest first; their events re-file strictly below
		// their level, so the loop terminates. Level 0 is included: the
		// slot at base&wheelMask can hold events whose tick equals the
		// new base (filed via a short delta before the jump), and they
		// must reach the due heap in the same batch as any co-tick
		// events a coarser cascade deposits there — leaving them behind
		// would pop the cascaded events first regardless of (at, seq).
		// Empty buckets cost one bit test.
		for l := wheelLevels - 1; l >= 0; l-- {
			if l > 0 && e.base&(uint64(1)<<(uint(l)*wheelBits)-1) != 0 {
				continue
			}
			if s := int(e.base>>(uint(l)*wheelBits)) & wheelMask; e.occ[l][s>>6]&(1<<uint(s&63)) != 0 {
				e.drain(uint(l), s)
			}
		}
	}
}

// popNext removes and returns the globally earliest event by (at, seq).
func (e *Engine) popNext() event {
	if len(e.due) == 0 {
		e.advance()
	}
	ev := e.due.pop()
	e.queued--
	if e.shadow != nil {
		e.checkShadow(ev)
	}
	return ev
}

// checkShadow asserts the wheel's pop matches the reference heap's.
func (e *Engine) checkShadow(ev event) {
	ref := e.shadow.pop()
	if ref.at != ev.at || ref.seq != ev.seq {
		panic(fmt.Sprintf("sim: wheel popped (at=%v seq=%d), reference heap says (at=%v seq=%d)",
			ev.at, ev.seq, ref.at, ref.seq))
	}
}

// FramePool returns the engine-local frame free-list shared by every
// node and link wired to this engine (see ether.FramePool for the
// ownership rules).
func (e *Engine) FramePool() *ether.FramePool { return &e.pool }

// Stop makes Run and RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called,
// leaving the clock at the last executed event. It returns the number
// of events executed.
func (e *Engine) Run() int {
	e.stopped = false
	n := 0
	for e.queued > 0 && !e.stopped {
		next := e.popNext()
		e.now = next.at
		next.fire()
		n++
	}
	return n
}

// RunUntil executes events with timestamps <= deadline and leaves the
// clock exactly at the deadline (idle time passes even when no events
// are due).
func (e *Engine) RunUntil(deadline time.Duration) int {
	e.stopped = false
	n := 0
	for e.queued > 0 && !e.stopped {
		if len(e.due) == 0 {
			e.advance()
		}
		if e.due[0].at > deadline {
			break
		}
		next := e.due.pop()
		e.queued--
		if e.shadow != nil {
			e.checkShadow(next)
		}
		e.now = next.at
		next.fire()
		n++
	}
	if e.now < deadline && !e.stopped {
		e.now = deadline
	}
	return n
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return e.queued }

// schedAt is the internal hook Timer and Ticker are built on; it is
// implemented by Engine (root-stream keys) and Proc (entity keys), so
// the same timer machinery serves both without caring which stream its
// events ride.
type schedAt interface {
	nowT() time.Duration
	scheduleAtFn(t time.Duration, fn func())
}

func (e *Engine) nowT() time.Duration                     { return e.now }
func (e *Engine) scheduleAtFn(t time.Duration, fn func()) { e.ScheduleAt(t, fn) }

// Timer is a cancellable, reschedulable one-shot timer.
type Timer struct {
	s        schedAt
	deadline time.Duration
	armed    bool
	fn       func()
	fire     func() // allocated once; Reset schedules it without a new closure
}

// NewTimer returns an unarmed timer that will call fn when it fires.
// Its expiry events ride the engine's root stream; entity code should
// use Proc.NewTimer instead.
func (e *Engine) NewTimer(fn func()) *Timer { return newTimer(e, fn) }

func newTimer(s schedAt, fn func()) *Timer {
	t := &Timer{s: s, fn: fn}
	// A stale scheduled fire (superseded by a later Reset, or
	// disarmed by Stop) identifies itself by its instant not matching
	// the current deadline; only the live one passes both checks.
	t.fire = func() {
		if !t.armed || t.s.nowT() != t.deadline {
			return
		}
		t.armed = false
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire after d.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.deadline = t.s.nowT() + d
	t.armed = true
	t.s.scheduleAtFn(t.deadline, t.fire)
}

// Stop disarms the timer; a pending expiry will not fire.
func (t *Timer) Stop() {
	t.armed = false
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.armed }

// Ticker invokes fn every interval until stopped.
type Ticker struct {
	s        schedAt
	interval time.Duration
	stopped  bool
	fn       func()
}

// NewTicker starts a ticker with the given interval. The first tick is
// after one full interval unless jitter > 0, in which case the first
// tick is after a uniform random fraction of jitter (used to de-phase
// periodic protocols such as LDP keepalives). Tick events ride the
// engine's root stream and the jitter draws from the root PRNG;
// entity code should use Proc.NewTicker instead.
func (e *Engine) NewTicker(interval, jitter time.Duration, fn func()) *Ticker {
	return newTicker(e, e.rng, interval, jitter, fn)
}

func newTicker(s schedAt, rng *rand.Rand, interval, jitter time.Duration, fn func()) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive ticker interval %v", interval))
	}
	t := &Ticker{s: s, interval: interval, fn: fn}
	first := interval
	if jitter > 0 {
		first = time.Duration(rng.Int64N(int64(jitter))) + 1
	}
	s.scheduleAtFn(s.nowT()+first, t.tick)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fn()
	if t.stopped { // fn may stop the ticker
		return
	}
	t.s.scheduleAtFn(t.s.nowT()+t.interval, t.tick)
}

// Stop halts the ticker.
func (t *Ticker) Stop() { t.stopped = true }
