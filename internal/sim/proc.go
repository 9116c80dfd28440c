package sim

import (
	"fmt"
	"math/rand/v2"
	"time"

	"portland/internal/ether"
)

// Event keys. Ties between simultaneous events are broken by a 64-bit
// key whose high bits are the scheduling entity's rank (allocated once,
// in construction order) and whose low bits are a per-entity counter.
// Two events of the same entity therefore order by issue order, and
// events of different entities order by construction order — never by
// global insertion order, so one entity's timers, coins and tie-breaks
// cannot be perturbed by how other entities interleave their work. The
// engine root stream is rank 0 with a bare counter, so standalone-engine
// users (tests, benchmarks) see plain insertion-order semantics.
const (
	ctrBits = 36
	ctrMask = (uint64(1) << ctrBits) - 1
	maxRank = (uint64(1) << (64 - ctrBits)) - 1
)

// procRNG derives the deterministic per-entity PRNG for rank. The
// stream depends only on (engine seed, rank).
func procRNG(seed, rank uint64) *rand.Rand {
	s := seed + rank*0x9e3779b97f4a7c15
	return rand.New(rand.NewPCG(s, s^0x6a09e667f3bcc909))
}

// Sched is the scheduling surface shared by Engine (root stream) and
// Proc (one entity's stream). Protocol code programs against whichever
// it is handed; the choice decides which RNG stream the code draws from
// and which tie-break rank its events carry.
type Sched interface {
	// Now returns the current virtual time.
	Now() time.Duration
	// Rand returns this scheduler's deterministic PRNG stream.
	Rand() *rand.Rand
	// Schedule runs fn after delay d of virtual time.
	Schedule(d time.Duration, fn func())
	// ScheduleAt runs fn at absolute virtual time t (clamped to now).
	ScheduleAt(t time.Duration, fn func())
	// NewTimer returns an unarmed timer that will call fn when it fires.
	NewTimer(fn func()) *Timer
	// NewTicker starts a ticker with the given interval and first-tick
	// jitter.
	NewTicker(interval, jitter time.Duration, fn func()) *Ticker
}

// Proc is one simulated entity's scheduling identity: a tie-break rank,
// an event counter, and a private PRNG stream, bound to the engine the
// entity lives on. Everything a node schedules or draws through its
// Proc is independent of every other entity: the interleaving of
// *other* entities' work cannot perturb this entity's timers, coins,
// or tie-breaks.
type Proc struct {
	eng  *Engine
	rank uint64
	ctr  uint64
	rng  *rand.Rand
}

// NewProc allocates the next entity rank in construction order and
// binds it to the engine.
func (e *Engine) NewProc() *Proc {
	rank := e.nextRank
	if rank > maxRank {
		panic(fmt.Sprintf("sim: rank space exhausted (%d entities)", rank))
	}
	e.nextRank++
	return &Proc{eng: e, rank: rank, rng: procRNG(e.seed, rank)}
}

// Now returns the current virtual time of the Proc's engine.
func (p *Proc) Now() time.Duration { return p.eng.now }

// Rand returns the entity's private deterministic PRNG.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// FramePool returns the frame free-list of the Proc's engine.
func (p *Proc) FramePool() *ether.FramePool { return &p.eng.pool }

// key issues the next tie-break key: rank in the high bits, issue
// counter in the low bits.
func (p *Proc) key() uint64 {
	p.ctr++
	if p.ctr > ctrMask {
		panic("sim: per-entity event counter overflow")
	}
	return p.rank<<ctrBits | p.ctr
}

// Schedule implements Sched.
func (p *Proc) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	p.ScheduleAt(p.eng.now+d, fn)
}

// ScheduleAt implements Sched.
func (p *Proc) ScheduleAt(t time.Duration, fn func()) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.eng.enqueue(event{at: t, seq: p.key(), fn: fn})
}

// NewTimer implements Sched: the timer's expiries carry this entity's
// rank.
func (p *Proc) NewTimer(fn func()) *Timer { return newTimer(p, fn) }

// NewTicker implements Sched: tick events carry this entity's rank and
// the first-tick jitter draws from the entity's own stream.
func (p *Proc) NewTicker(interval, jitter time.Duration, fn func()) *Ticker {
	return newTicker(p, p.rng, interval, jitter, fn)
}

// nowT/scheduleAtFn implement the internal scheduler hooks Timer and
// Ticker are built on.
func (p *Proc) nowT() time.Duration                     { return p.eng.now }
func (p *Proc) scheduleAtFn(t time.Duration, fn func()) { p.ScheduleAt(t, fn) }
