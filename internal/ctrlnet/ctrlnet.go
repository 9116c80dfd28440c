// Package ctrlnet provides transports for the switch ↔ fabric-manager
// control protocol (ctrlmsg).
//
// Two implementations ship: a deterministic in-simulator pipe used by
// every experiment, and a real TCP transport (length-prefixed frames
// over net.Conn) proving the codec is a genuine wire protocol. Both
// serialize every message through ctrlmsg.Encode/Decode, so the
// in-simulator byte counters measure true control-plane traffic —
// that is what the Figure 13 reproduction reports.
package ctrlnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"portland/internal/ctrlmsg"
	"portland/internal/sim"
)

// Handler consumes inbound control messages.
type Handler func(ctrlmsg.Msg)

// Conn is one end of a control channel.
type Conn interface {
	// Send transmits m to the peer. Implementations deliver
	// asynchronously and in order.
	Send(m ctrlmsg.Msg) error
	// Close tears the channel down; subsequent Sends fail.
	Close() error
	// Stats returns cumulative byte/message counters for this end's
	// transmit direction.
	Stats() Stats
	// Err reports the first protocol-level error observed on the
	// channel (e.g. a control frame that failed to decode), or nil.
	// Errors that only discard one frame do not close the channel.
	Err() error
}

// Stats counts one direction of a control channel.
type Stats struct {
	Msgs  int64
	Bytes int64
	// Drops counts transmitted frames that never reached the peer's
	// handler: lost to the configured loss rate, to a down/closed
	// peer, or discarded as corrupt.
	Drops int64
	// Corrupt counts received frames discarded because they failed to
	// decode (a subset of the peer's Drops).
	Corrupt int64
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("ctrlnet: connection closed")

// PipeConfig sets the physical properties of an in-simulator control
// channel, mirroring sim.LinkConfig for data links.
type PipeConfig struct {
	// Delay is the one-way latency.
	Delay time.Duration
	// LossRate drops each frame independently with this probability
	// (deterministic given the engine seed).
	LossRate float64
	// CorruptRate flips a byte of the encoded frame with this
	// probability; the receiver counts and discards it.
	CorruptRate float64
}

// SimConn is one end of an in-simulator pipe. Each end carries its own
// sim.Proc: send-side coins draw from the end's private stream and
// deliveries to the peer are keyed by it.
type SimConn struct {
	proc    *sim.Proc
	cfg     PipeConfig
	peer    *SimConn
	handler Handler
	closed  bool
	down    bool
	stats   Stats
	err     error
}

// SimPipe creates a bidirectional in-simulator control channel on eng
// with the given physical configuration: latency plus the
// loss/corruption rates the control-plane hardening tests and the fmf
// experiment inject. Attach receivers with SetHandler on each end.
// Delivery order is FIFO per direction, as over TCP.
func SimPipe(eng *sim.Engine, cfg PipeConfig) (a, b *SimConn) {
	ca := &SimConn{proc: eng.NewProc(), cfg: cfg}
	cb := &SimConn{proc: eng.NewProc(), cfg: cfg}
	ca.peer = cb
	cb.peer = ca
	return ca, cb
}

// Sched returns this end's scheduling stream. Wrappers that need timers
// on this end (e.g. Reliable) build them here.
func (c *SimConn) Sched() sim.Sched { return c.proc }

// SetHandler installs the function that receives messages sent by the
// peer end.
func (c *SimConn) SetHandler(h Handler) { c.handler = h }

// SetUp marks this end alive or dead. A dead end transmits nothing
// and silently discards frames addressed to it — how a crashed fabric
// manager looks to the switches on the other side of the control
// network. Unlike Close, SetUp(true) revives the end.
func (c *SimConn) SetUp(up bool) { c.down = !up }

// Up reports whether the end is alive (neither down nor closed).
func (c *SimConn) Up() bool { return !c.down && !c.closed }

// Send implements Conn. The message is round-tripped through the wire
// codec to keep the simulated and real transports byte-equivalent.
func (c *SimConn) Send(m ctrlmsg.Msg) error {
	if c.closed {
		return ErrClosed
	}
	if c.down {
		c.stats.Drops++
		return nil // a dead process doesn't get an error, it gets silence
	}
	b := ctrlmsg.Encode(m)
	c.stats.Msgs++
	c.stats.Bytes += int64(len(b) + frameOverhead)
	rng := c.proc.Rand()
	if c.cfg.LossRate > 0 && rng.Float64() < c.cfg.LossRate {
		c.stats.Drops++
		return nil
	}
	if c.cfg.CorruptRate > 0 && rng.Float64() < c.cfg.CorruptRate {
		// Smash the kind byte: detectably corrupt (no valid kind has
		// the high bit set), so every corruption event is observable
		// at the receiver rather than silently decoding to garbage.
		b = append([]byte(nil), b...)
		b[0] ^= 0x80
	}
	peer := c.peer
	c.proc.Schedule(c.cfg.Delay, func() { peer.deliverRaw(b) })
	return nil
}

// deliverRaw decodes and dispatches one received frame. A frame that
// fails to decode is counted and dropped — never fatal: a corrupted
// control frame must cost one message, not the process.
func (c *SimConn) deliverRaw(b []byte) {
	if c.closed || c.down {
		c.stats.Drops++
		return
	}
	d, err := ctrlmsg.Decode(b)
	if err != nil {
		c.stats.Corrupt++
		c.stats.Drops++
		if c.err == nil {
			c.err = fmt.Errorf("ctrlnet: discarding undecodable control frame: %w", err)
		}
		return
	}
	if c.handler != nil {
		c.handler(d)
	}
}

// Close implements Conn.
func (c *SimConn) Close() error {
	c.closed = true
	return nil
}

// Stats implements Conn.
func (c *SimConn) Stats() Stats { return c.stats }

// Err implements Conn: the first decode failure seen by this end.
func (c *SimConn) Err() error { return c.err }

// frameOverhead is the per-message framing cost (length prefix),
// charged identically by both transports.
const frameOverhead = 4

// maxFrame bounds a control frame; anything larger is a protocol
// error, not a legitimate message.
const maxFrame = 1 << 20

// TCPConn runs the control protocol over a net.Conn using 4-byte
// big-endian length-prefixed frames. Reads are dispatched to the
// handler from a dedicated goroutine.
type TCPConn struct {
	mu      sync.Mutex
	conn    net.Conn
	closed  bool
	stats   Stats
	handler Handler
	done    chan struct{}
	readErr error
}

// NewTCPConn wraps c and starts the read loop. The handler is invoked
// sequentially (one message at a time) from the reader goroutine.
func NewTCPConn(c net.Conn, h Handler) *TCPConn {
	t := &TCPConn{conn: c, handler: h, done: make(chan struct{})}
	go t.readLoop()
	return t
}

// Send implements Conn.
func (t *TCPConn) Send(m ctrlmsg.Msg) error {
	b := ctrlmsg.Encode(m)
	var hdr [frameOverhead]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	if _, err := t.conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("sending control frame header: %w", err)
	}
	if _, err := t.conn.Write(b); err != nil {
		return fmt.Errorf("sending control frame body: %w", err)
	}
	t.stats.Msgs++
	t.stats.Bytes += int64(len(b) + frameOverhead)
	return nil
}

// Close implements Conn and waits for the read loop to exit.
func (t *TCPConn) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.done
		return nil
	}
	t.closed = true
	err := t.conn.Close()
	t.mu.Unlock()
	<-t.done
	return err
}

// Stats implements Conn.
func (t *TCPConn) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Done is closed when the read loop exits (peer disconnected or
// Close was called) — the signal a server uses to reap the session.
func (t *TCPConn) Done() <-chan struct{} { return t.done }

// ReadErr reports the error that terminated the read loop, if any
// (io.EOF and closed-connection errors are reported as nil).
func (t *TCPConn) ReadErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.readErr
}

// Err implements Conn; for TCP it is the read-loop error, since a
// framing or decode failure on a byte stream loses synchronization
// and terminates the session.
func (t *TCPConn) Err() error { return t.ReadErr() }

func (t *TCPConn) readLoop() {
	defer close(t.done)
	var hdr [frameOverhead]byte
	for {
		if _, err := io.ReadFull(t.conn, hdr[:]); err != nil {
			t.finish(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > maxFrame {
			t.finish(fmt.Errorf("ctrlnet: frame of %d bytes exceeds limit", n))
			return
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(t.conn, body); err != nil {
			t.finish(err)
			return
		}
		m, err := ctrlmsg.Decode(body)
		if err != nil {
			t.finish(fmt.Errorf("decoding control frame: %w", err))
			return
		}
		if t.handler != nil {
			t.handler(m)
		}
	}
}

func (t *TCPConn) finish(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
		t.readErr = err
	}
	t.closed = true
	t.conn.Close()
}
