package fabricmgr

import (
	"testing"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/pmac"
	"portland/internal/topo"
)

// ftEnd is one switch port of a cable.
type ftEnd struct {
	id   ctrlmsg.SwitchID
	port uint8
}

// ftLink is one switch-to-switch cable of the fat tree.
type ftLink struct{ a, b ftEnd }

// ftRig is a bare manager fed the switch adjacency of topo.FatTree(k),
// every link reported up from both ends: a full-size fabric as the
// manager sees it, without simulating the switches. Switch IDs are the
// spec's node IDs plus one.
type ftRig struct {
	m    *Manager
	sess map[ctrlmsg.SwitchID]*Session
	// loc is each switch's own view of its location, as it would
	// report it in LocationReports and FaultNotifies.
	loc   map[ctrlmsg.SwitchID]ctrlmsg.Loc
	links []ftLink // switch-to-switch cables in spec order
}

// newFatTreeRig builds the rig. conn supplies each switch's control
// connection. A switch for which late reports true gets a session but
// sends no Hello, so the manager drops its own reports and knows it
// only from its peers' until a Hello arrives.
func newFatTreeRig(tb testing.TB, k int, conn func(ctrlmsg.SwitchID) ctrlnet.Conn, late func(ctrlmsg.SwitchID) bool) *ftRig {
	tb.Helper()
	spec, err := topo.FatTree(k)
	if err != nil {
		tb.Fatal(err)
	}
	r := &ftRig{
		m:    New(),
		sess: make(map[ctrlmsg.SwitchID]*Session),
		loc:  make(map[ctrlmsg.SwitchID]ctrlmsg.Loc),
	}
	swID := func(n topo.NodeID) ctrlmsg.SwitchID { return ctrlmsg.SwitchID(n + 1) }
	for _, n := range spec.Nodes {
		loc := ctrlmsg.Loc{Pod: uint16(n.Pod), Pos: 0xff}
		switch n.Level {
		case topo.Edge:
			loc.Level, loc.Pos = ctrlmsg.LevelEdge, uint8(n.Position)
		case topo.Aggregation:
			loc.Level = ctrlmsg.LevelAggregation
		case topo.Core:
			loc.Level, loc.Pod = ctrlmsg.LevelCore, pmac.CorePod
		default:
			continue
		}
		id := swID(n.ID)
		r.loc[id] = loc
		r.sess[id] = r.m.NewSession(conn(id))
		if !late(id) {
			r.sess[id].Handle(ctrlmsg.Hello{Switch: id})
			r.sess[id].Handle(ctrlmsg.LocationReport{Switch: id, Loc: loc})
		}
	}
	for _, l := range spec.Links {
		if spec.Nodes[l.A.Node].Level == topo.Host || spec.Nodes[l.B.Node].Level == topo.Host {
			continue
		}
		fl := ftLink{ftEnd{swID(l.A.Node), uint8(l.A.Port)}, ftEnd{swID(l.B.Node), uint8(l.B.Port)}}
		r.links = append(r.links, fl)
		r.flip(fl, false)
	}
	return r
}

// report delivers from's port report on its cable to peer.
func (r *ftRig) report(from, peer ftEnd, down bool) {
	r.sess[from.id].Handle(ctrlmsg.FaultNotify{
		Switch: from.id, Port: from.port, Down: down, PeerID: peer.id,
		LocalLoc: r.loc[from.id], PeerLoc: r.loc[peer.id],
	})
}

// flip takes a cable down (or back up) as both ends report it.
func (r *ftRig) flip(l ftLink, down bool) {
	r.report(l.a, l.b, down)
	r.report(l.b, l.a, down)
}

// aggCoreLink returns the first aggregation-core cable: pod 0's
// position-0 aggregation switch and core 0.
func (r *ftRig) aggCoreLink() ftLink {
	for _, l := range r.links {
		if r.loc[l.a.id].Level == ctrlmsg.LevelAggregation && r.loc[l.b.id].Level == ctrlmsg.LevelCore {
			return l
		}
	}
	panic("fat tree without an aggregation-core cable")
}
