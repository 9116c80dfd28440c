package fabricmgr

import (
	"testing"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ldp"
)

// exclCounter is a control connection that counts the RouteExclude
// messages sent through it into a counter shared by every switch.
type exclCounter struct{ n *int }

func (c exclCounter) Send(msg ctrlmsg.Msg) error {
	if _, ok := msg.(ctrlmsg.RouteExclude); ok {
		*c.n++
	}
	return nil
}
func (exclCounter) Close() error         { return nil }
func (exclCounter) Stats() ctrlnet.Stats { return ctrlnet.Stats{} }
func (exclCounter) Err() error           { return nil }

// FuzzRecomputeSkip checks that skipping a recompute whose inputs did
// not change is invisible. The first byte picks a k=4 fat-tree switch
// whose Hello is withheld (values past the last switch withhold none).
// Each following byte pair (op, arg) is one message to the manager;
// op%6 picks the kind, op/6 parameterises it, and arg names a switch
// (arg%20+1) or a cable (arg>>1, reported from end arg&1):
//
//   - 0, 1: a cable's down or up report from one end, duplicates
//     included;
//   - 2: a LocationReport carrying the switch's current location, a
//     reboot to PodUnknown, its true location, or a level change
//     (op/6%4);
//   - 3: a late or repeated Hello;
//   - 4: BeginResync;
//   - 5: a report from switch arg about a peer op/6 that no spec cable
//     joins (a new link; down when arg >= 128).
//
// Whenever the manager leaves routesDirty clear, a forced recompute
// must emit no RouteExclude: the skipped run would have sent nothing.
func FuzzRecomputeSkip(f *testing.F) {
	const none = 255
	// Cable 16 is agg 3 to core 17; switch 7 is pod 1's agg 0.
	f.Add([]byte{none, 0, 32, 0, 33, 1, 32, 1, 33})              // fail and restore from both ends
	f.Add([]byte{6, 0, 32, 3, 6, 2, 6, 1, 32})                   // held exclusion, late Hello
	f.Add([]byte{none, 0, 32, 4, 0, 2, 0, 1, 32, 4, 0})          // resync with a fault out
	f.Add([]byte{none, 0, 32, 20, 6, 14, 6, 8, 0, 14, 0, 1, 32}) // 7 changes level and back, 1 reboots and back
	f.Add([]byte{none, 0, 32, 101, 7, 1, 32})                    // new link 8-17
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sent := 0
		lateID := ctrlmsg.SwitchID(data[0]) + 1
		r := newFatTreeRig(t, 4,
			func(ctrlmsg.SwitchID) ctrlnet.Conn { return exclCounter{&sent} },
			func(id ctrlmsg.SwitchID) bool { return id == lateID })
		truth := make(map[ctrlmsg.SwitchID]ctrlmsg.Loc, len(r.loc))
		for id, loc := range r.loc {
			truth[id] = loc
		}
		swOf := func(b byte) ctrlmsg.SwitchID { return ctrlmsg.SwitchID(int(b)%len(r.loc)) + 1 }
		epoch := uint32(0)
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := swOf(arg)
			switch op % 6 {
			case 0, 1:
				l := r.links[int(arg>>1)%len(r.links)]
				from, peer := l.a, l.b
				if arg&1 == 1 {
					from, peer = peer, from
				}
				r.report(from, peer, op%6 == 0)
			case 2:
				loc := r.loc[id]
				switch op / 6 % 4 {
				case 1: // reboot: discovery starts over
					loc.Pod = ldp.PodUnknown
				case 2:
					loc = truth[id]
				case 3:
					loc.Level = loc.Level%3 + 1
				}
				r.loc[id] = loc
				r.sess[id].Handle(ctrlmsg.LocationReport{Switch: id, Loc: loc})
			case 3:
				r.sess[id].Handle(ctrlmsg.Hello{Switch: id})
			case 4:
				epoch++
				r.m.BeginResync(epoch, nil)
			case 5:
				r.report(ftEnd{id, 9}, ftEnd{swOf(op / 6), 9}, arg >= 128)
			}
			if r.m.routesDirty {
				continue // the next trigger recomputes
			}
			before := sent
			r.m.routesDirty = true
			r.m.recomputeRoutes()
			if sent != before {
				t.Fatalf("message %d (op %d arg %d): skipped recompute would have sent %d RouteExclude",
					i/2, op, arg, sent-before)
			}
		}
	})
}

// TestHeldExclusionPushedAfterLateHello pins the no-session path of
// recomputeRoutes. An exclusion computed for a switch whose Hello has
// not arrived is held back, not pushed into the void; the Hello itself
// triggers nothing, and the switch's next LocationReport carries an
// unchanged location. That report must still push the held exclusion,
// so binding a session has to count as an input change.
func TestHeldExclusionPushedAfterLateHello(t *testing.T) {
	conns := make(map[ctrlmsg.SwitchID]*recConn)
	conn := func(id ctrlmsg.SwitchID) ctrlnet.Conn {
		c := &recConn{}
		conns[id] = c
		return c
	}
	// k=4: pod 0's position-0 aggregation switch is 3, pod 1's is 7,
	// and both reach core 17 (core 0).
	const pod1Agg = ctrlmsg.SwitchID(7)
	r := newFatTreeRig(t, 4, conn, func(id ctrlmsg.SwitchID) bool { return id == pod1Agg })
	l := r.aggCoreLink()
	if l.a.id != 3 || l.b.id != 17 {
		t.Fatalf("first agg-core cable is %d-%d, want 3-17", l.a.id, l.b.id)
	}
	r.flip(l, true) // core 17 can no longer descend into pod 0
	want := ctrlmsg.RouteExclude{Add: true, Via: 17, DstPod: 0, DstPos: ctrlmsg.AnyPos}
	if n := len(conns[pod1Agg].msgs); n != 0 {
		t.Fatalf("switch %d got %d messages before its Hello", pod1Agg, n)
	}
	r.sess[pod1Agg].Handle(ctrlmsg.Hello{Switch: pod1Agg})
	r.sess[pod1Agg].Handle(ctrlmsg.LocationReport{Switch: pod1Agg, Loc: r.m.locs[pod1Agg]})
	if ex := conns[pod1Agg].excludes(); !ex[want] {
		t.Fatalf("held exclusion %+v not pushed after the late Hello: %v", want, ex)
	}
}
