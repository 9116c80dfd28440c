// Package fabricmgr implements PortLand's logically centralized fabric
// manager (paper §3): soft state only — an IP → PMAC registry fed by
// edge-switch registrations, a topology graph and fault matrix fed by
// switch port reports, and multicast group state fed by joins. It
// answers proxy-ARP queries, assigns pod numbers, reacts to faults by
// pushing targeted route exclusions to affected switches, computes
// multicast trees, and drives VM-migration invalidations.
//
// The manager is transport-agnostic: each switch connects over a
// ctrlnet.Conn (in-simulator pipe or real TCP), and all state can be
// rebuilt from the network, as the paper requires of soft state.
package fabricmgr

import (
	"bytes"
	"net/netip"
	"sort"
	"sync"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/obs"
	"portland/internal/pmac"
)

// Counters tracks manager load for the scalability experiments.
type Counters struct {
	ARPQueries    int64
	ARPHits       int64
	ARPMisses     int64
	Registrations int64
	Migrations    int64
	FaultEvents   int64
	ExclusionsSet int64
	McastInstalls int64
	DHCPQueries   int64
	GrayReports   int64
	HostReplays   int64
	// ARPBatches counts batched punt messages served and
	// BatchedQueries the queries they carried (each also counted in
	// ARPQueries), so the amortization ratio is directly readable.
	ARPBatches     int64
	BatchedQueries int64
}

// Add accumulates o into c. This is the per-shard merge: a fabric
// running N registry shards reports the sum of every active shard's
// counters, and because each registration and ARP punt is routed to
// exactly one owning shard, summing never double-counts registry
// churn (passive standbys mirror the stream and must be excluded by
// the caller).
func (c *Counters) Add(o Counters) {
	c.ARPQueries += o.ARPQueries
	c.ARPHits += o.ARPHits
	c.ARPMisses += o.ARPMisses
	c.Registrations += o.Registrations
	c.Migrations += o.Migrations
	c.FaultEvents += o.FaultEvents
	c.ExclusionsSet += o.ExclusionsSet
	c.McastInstalls += o.McastInstalls
	c.DHCPQueries += o.DHCPQueries
	c.GrayReports += o.GrayReports
	c.HostReplays += o.HostReplays
	c.ARPBatches += o.ARPBatches
	c.BatchedQueries += o.BatchedQueries
}

type hostRecord struct {
	amac ether.Addr
	pmac ether.Addr
	edge ctrlmsg.SwitchID
}

// staleEntry is a parked §3.4 invalidation: a PMAC that stopped
// routing to its host because the issuing edge rebooted into a
// different position. Keyed by the stale PMAC in Manager.stale.
type staleEntry struct {
	ip      netip.Addr
	newPMAC ether.Addr
}

// pairKey identifies a switch pair (at most one physical link between
// any two switches, as in the fat tree).
type pairKey struct {
	lo, hi ctrlmsg.SwitchID
}

func mkPair(a, b ctrlmsg.SwitchID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// linkState is one graph edge assembled from both endpoints' reports.
type linkState struct {
	lo, hi         ctrlmsg.SwitchID
	loPort, hiPort int // -1 until that side reports
	loUp, hiUp     bool
}

func (l *linkState) up() bool { return l.loUp && l.hiUp }

func (l *linkState) portOf(id ctrlmsg.SwitchID) int {
	if id == l.lo {
		return l.loPort
	}
	return l.hiPort
}

func (l *linkState) other(id ctrlmsg.SwitchID) ctrlmsg.SwitchID {
	if id == l.lo {
		return l.hi
	}
	return l.lo
}

type exclKey struct {
	via ctrlmsg.SwitchID
	pod uint16
	pos uint8
}

// exclDelta is one coalesced RouteExclude to flush: recomputeRoutes
// assembles the whole trigger's worth before sending any of them.
type exclDelta struct {
	target ctrlmsg.SwitchID
	key    exclKey
	add    bool
}

type member struct {
	edge ctrlmsg.SwitchID
	src  bool
}

type group struct {
	members map[ether.Addr]member // PMAC addr -> membership
	// installed output ports per switch for diffing.
	installed map[ctrlmsg.SwitchID][]uint8
}

// Manager is the fabric manager. Safe for concurrent sessions (the
// TCP transport calls from multiple goroutines).
type Manager struct {
	mu sync.Mutex

	conns map[ctrlmsg.SwitchID]ctrlnet.Conn
	locs  map[ctrlmsg.SwitchID]ctrlmsg.Loc

	// Cached ID-sorted views of locs, rebuilt lazily when noteLoc
	// dirties them. Every ARP-miss flood and every exclusion recompute
	// iterates switches in ID order (the send order is observable
	// under CtrlLoss, so it must be deterministic); at k=48 the
	// per-trigger sort of 2,880 IDs dominated the manager's cost.
	idsSorted  []ctrlmsg.SwitchID
	edgeIDs    []ctrlmsg.SwitchID
	idsDirty   bool
	edgesDirty bool

	// Reusable batch-assembly buffers for recomputeRoutes: the
	// exclusion deltas of one trigger are coalesced here and flushed
	// in a single sorted pass, so repeated fault churn allocates
	// nothing once the buffers reach their high-water mark.
	deltaBuf  []exclDelta
	keyBuf    []exclKey
	targetBuf []ctrlmsg.SwitchID
	// nbrBuf backs every neighbour list one recompute hands out; it is
	// rewound at the start of each recompute.
	nbrBuf []peerLink

	ips map[netip.Addr]hostRecord

	links map[pairKey]*linkState
	// adj indexes links by endpoint: each switch's incident links,
	// sorted by peer ID. handleFault is its only writer, and links are
	// never deleted, so a neighbour query costs O(degree).
	adj map[ctrlmsg.SwitchID][]*linkState

	// routesDirty is set whenever an input of recomputeRoutes changes:
	// a link appears or flips up() (handleFault), a location changes
	// (noteLoc), a switch ID binds its first session (Session.Handle's
	// Hello), or the installed exclusion view is reset (BeginResync).
	// The desired exclusion set is a pure function of those inputs, so
	// a trigger that finds the flag clear would emit nothing and is
	// skipped. Any new writer of links, locs, conns or excl must set it.
	routesDirty bool

	excl map[ctrlmsg.SwitchID]map[exclKey]bool

	groups map[uint32]*group

	// DHCP leases: MAC -> assigned IP (idempotent re-discovery).
	leases    map[ether.Addr]netip.Addr
	nextLease uint32

	// downLinks counts graph edges currently down — the fast-path
	// guard that keeps bootstrap (thousands of adjacency reports,
	// zero faults) from re-running the exclusion cascade every time.
	downLinks int

	nextPod uint16

	// pods is the sticky pod memory: the last real (non-sentinel) pod
	// each edge switch was known to occupy. Unlike locs, it survives
	// the switch re-registering with PodUnknown after a reboot, so a
	// power-cycled pod gets its number — and thus every member PMAC —
	// back instead of a fresh one that stales every remote ARP cache.
	pods map[ctrlmsg.SwitchID]uint16

	// stale holds parked invalidations for PMACs orphaned by an edge
	// rebooting into a different position (see syncEdgeHosts).
	stale map[ether.Addr]staleEntry

	// passive suppresses all transmissions: a warm standby mirrors
	// the control stream to build state but must stay silent until
	// promoted (resync.go).
	passive bool

	// shardID/shardN make this manager one replica of a
	// prefix-partitioned registry: it owns exactly the IPs with
	// ctrlmsg.ShardOfIP(ip, shardN) == shardID. Edge switches route
	// registrations and ARP punts to the owner, so the guard in
	// register is belt-and-braces; shardN <= 1 means unsharded.
	shardID, shardN int

	// Resync bookkeeping: the epoch being collected, how many
	// switches have yet to answer it, and the completion callback.
	// ARP misses that race the resync are parked in pendingARP and
	// re-served once the fabric has fully reported — a miss during
	// resync is indistinguishable from a host not yet replayed.
	syncEpoch   uint32
	syncWaiting int
	onSyncDone  func(epoch uint32)
	pendingARP  []ctrlmsg.ARPQuery

	// Stats is the manager's counter block.
	Stats Counters

	// jou receives the manager's control-plane events (ARP service,
	// registry churn, fault-matrix transitions, exclusion pushes,
	// resync progress). Nil is a no-op sink.
	jou *obs.Journal
}

// New returns an empty manager.
func New() *Manager {
	return &Manager{
		conns:  make(map[ctrlmsg.SwitchID]ctrlnet.Conn),
		locs:   make(map[ctrlmsg.SwitchID]ctrlmsg.Loc),
		ips:    make(map[netip.Addr]hostRecord),
		links:  make(map[pairKey]*linkState),
		adj:    make(map[ctrlmsg.SwitchID][]*linkState),
		excl:   make(map[ctrlmsg.SwitchID]map[exclKey]bool),
		groups: make(map[uint32]*group),
		leases: make(map[ether.Addr]netip.Addr),
		pods:   make(map[ctrlmsg.SwitchID]uint16),
		stale:  make(map[ether.Addr]staleEntry),
	}
}

// SetShard makes the manager responsible for registry shard id of n
// (0 of 1 = the classic unsharded manager). A shard ignores
// registrations for IPs it does not own; shard 0 additionally carries
// the route authority (faults, exclusions, pods, DHCP, multicast) in
// the fabric's wiring.
func (m *Manager) SetShard(id, n int) {
	m.mu.Lock()
	m.shardID, m.shardN = id, n
	m.mu.Unlock()
}

// ownsIP reports whether this manager's shard owns ip.
func (m *Manager) ownsIP(ip netip.Addr) bool {
	return m.shardN <= 1 || ctrlmsg.ShardOfIP(ip, m.shardN) == m.shardID
}

// SetJournal directs the manager's control-plane events into j. Safe
// to leave unset, and safe to call before any session exists.
func (m *Manager) SetJournal(j *obs.Journal) {
	m.mu.Lock()
	m.jou = j
	m.mu.Unlock()
}

// Session binds one switch's control connection to the manager.
// Create it, then use its Handle method as the connection's receive
// handler.
type Session struct {
	mgr  *Manager
	conn ctrlnet.Conn
	id   ctrlmsg.SwitchID
	have bool
}

// NewSession creates a session for a yet-unidentified switch; the
// first Hello on the channel binds it.
func (m *Manager) NewSession(conn ctrlnet.Conn) *Session {
	return &Session{mgr: m, conn: conn}
}

// Handle processes one message from this session's switch.
func (s *Session) Handle(msg ctrlmsg.Msg) {
	m := s.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := msg.(ctrlmsg.Hello); ok {
		s.id = h.Switch
		s.have = true
		if _, bound := m.conns[h.Switch]; !bound {
			m.routesDirty = true // exclusions held back for it can now be pushed
		}
		m.conns[h.Switch] = s.conn
		return
	}
	if !s.have {
		return // protocol violation: everything after Hello
	}
	switch v := msg.(type) {
	case ctrlmsg.LocationReport:
		m.noteLoc(v.Switch, v.Loc)
		m.notePod(v.Loc.Pod)
		if v.Loc.Level == ctrlmsg.LevelEdge && v.Loc.Pod < podSentinel {
			m.syncEdgeHosts(v.Switch, v.Loc)
		}
		m.recomputeRoutes()
	case ctrlmsg.PodRequest:
		// Sticky assignment: a switch the registry already places in a
		// pod (e.g. the position-0 edge of a whole pod that power-cycled
		// and restarted discovery) gets its old number back, so the rest
		// of the fabric's pod-addressed state stays meaningful.
		pod := m.nextPod
		if old, ok := m.pods[v.Switch]; ok {
			pod = old
		} else {
			m.nextPod++
		}
		m.jou.Record(obs.MgrPodAssign, uint64(v.Switch), uint64(pod), 0, 0)
		m.send(v.Switch, ctrlmsg.PodAssign{Pod: pod})
	case ctrlmsg.PMACRegister:
		m.register(v)
	case ctrlmsg.ARPQuery:
		m.handleARP(v)
	case ctrlmsg.ARPQueryBatch:
		m.handleARPBatch(v)
	case ctrlmsg.FaultNotify:
		m.handleFault(v)
	case ctrlmsg.McastJoin:
		m.handleJoin(v)
	case ctrlmsg.DHCPQuery:
		m.handleDHCP(v)
	case ctrlmsg.LeaseReport:
		m.noteLease(v.MAC, v.IP)
	case ctrlmsg.SyncDone:
		m.handleSyncDone(v)
	case ctrlmsg.GrayReport:
		m.Stats.GrayReports++
		q := uint64(0)
		if v.Quarantined {
			q = 1
		}
		m.jou.Record(obs.MgrGrayReport, uint64(v.Switch), uint64(v.Port), v.WireErrs, q)
	}
}

func (m *Manager) send(id ctrlmsg.SwitchID, msg ctrlmsg.Msg) {
	if m.passive {
		return
	}
	if c, ok := m.conns[id]; ok {
		_ = c.Send(msg)
	}
}

// ip4u32 packs an IPv4 address into a journal event argument.
func ip4u32(ip netip.Addr) uint64 {
	b := ip.As4()
	return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
}

// syncEdgeHosts runs when an edge switch reports a resolved location:
// every registry record homed on it is pushed back down
// (ctrlmsg.HostInstall), re-seeding the PMAC table a reboot wiped.
// Hosts that never transmit (pure receivers) would otherwise stay
// unreachable forever, because only ingress traffic re-populates the
// table. This is the §3.2 soft-state story run in reverse: the manager
// rebuilt its state from the switches once, now a switch rebuilds its
// state from the manager.
//
// Reboots can also change the location itself — position negotiation
// is randomized, so a power-cycled pod's edges may come back with
// their positions swapped. Every PMAC the edge issued is then stale
// fabric-wide: senders' ARP caches and the registry still route to
// the old position. The registry rewrites to the new location (port
// and VMID survive; pod and position follow the report), and the old
// PMACs become invalidation entries planted on whichever edge now
// owns the old position, so stale senders are corrected by the
// ordinary §3.4 migration mechanism the moment their next frame
// lands there.
func (m *Manager) syncEdgeHosts(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) {
	ips := make([]netip.Addr, 0, len(m.ips))
	for ip, rec := range m.ips {
		if rec.edge == id {
			ips = append(ips, ip)
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
	// Outstanding PMACs: every live record plus every parked stale
	// address. A corrected PMAC must never collide with one of them —
	// after a position swap, host A's old address would otherwise be
	// byte-identical to host B's new one, and the invalidation for A's
	// stale address would tear down B's freshly replayed mapping.
	used := make(map[ether.Addr]struct{}, len(m.ips)+len(m.stale))
	for _, rec := range m.ips {
		used[rec.pmac] = struct{}{}
	}
	for a := range m.stale {
		used[a] = struct{}{}
	}
	for _, ip := range ips {
		rec := m.ips[ip]
		want := pmac.FromAddr(rec.pmac)
		want.Pod, want.Position = loc.Pod, loc.Pos
		if want.Addr() != rec.pmac {
			for {
				if _, taken := used[want.Addr()]; !taken {
					break
				}
				want.VMID++
			}
			wa := want.Addr()
			used[wa] = struct{}{}
			m.noteStale(rec.pmac, staleEntry{ip: ip, newPMAC: wa})
			rec.pmac = wa
			m.ips[ip] = rec
		}
		m.Stats.HostReplays++
		m.jou.Record(obs.MgrHostReplay, uint64(id), ip4u32(ip), 0, 0)
		m.send(id, ctrlmsg.HostInstall{IP: ip, AMAC: rec.amac, PMAC: rec.pmac})
	}
	m.deliverStales(id, loc)
}

// noteStale parks an invalidation for a PMAC that no longer routes to
// its host and, if some edge already owns the stale position, delivers
// it immediately. Either this direct delivery or a later
// deliverStales (when the position's new owner reports in) hands the
// invalidation to the edge where stale-addressed frames actually
// land — whichever resolves the position first.
func (m *Manager) noteStale(old ether.Addr, e staleEntry) {
	m.stale[old] = e
	p := pmac.FromAddr(old)
	owners := make([]ctrlmsg.SwitchID, 0, 1)
	for sid, l := range m.locs {
		if l.Level == ctrlmsg.LevelEdge && l.Pod == p.Pod && l.Pos == p.Position {
			owners = append(owners, sid)
		}
	}
	sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
	for _, sid := range owners {
		m.send(sid, ctrlmsg.MigrationUpdate{IP: e.ip, OldPMAC: old, NewPMAC: e.newPMAC})
		delete(m.stale, old)
	}
}

// deliverStales hands the edge that just claimed a position every
// parked invalidation for PMACs that route there.
func (m *Manager) deliverStales(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) {
	addrs := make([]ether.Addr, 0, len(m.stale))
	for a := range m.stale {
		p := pmac.FromAddr(a)
		if p.Pod == loc.Pod && p.Position == loc.Pos {
			addrs = append(addrs, a)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	for _, a := range addrs {
		e := m.stale[a]
		m.send(id, ctrlmsg.MigrationUpdate{IP: e.ip, OldPMAC: a, NewPMAC: e.newPMAC})
		delete(m.stale, a)
	}
}

// register installs or updates an IP mapping; a changed PMAC for a
// known IP is a VM migration (paper §3.4). A sharded manager drops
// registrations it does not own — the switch-side router already
// steers them, so an off-shard arrival is a misroute, not load.
func (m *Manager) register(v ctrlmsg.PMACRegister) {
	if !m.ownsIP(v.IP) {
		return
	}
	m.Stats.Registrations++
	prev, existed := m.ips[v.IP]
	if existed && prev.pmac == v.PMAC {
		return
	}
	m.ips[v.IP] = hostRecord{amac: v.AMAC, pmac: v.PMAC, edge: v.Switch}
	if !existed {
		m.jou.Record(obs.MgrRegister, uint64(v.Switch), ip4u32(v.IP), 0, 0)
		return
	}
	m.Stats.Migrations++
	m.jou.Record(obs.MgrMigrate, uint64(v.Switch), ip4u32(v.IP), uint64(prev.edge), 0)
	// Tell the old edge switch so it can invalidate stale caches.
	if prev.edge != v.Switch || prev.pmac != v.PMAC {
		m.send(prev.edge, ctrlmsg.MigrationUpdate{IP: v.IP, OldPMAC: prev.pmac, NewPMAC: v.PMAC})
	}
	// Multicast membership follows the VM.
	changed := false
	for _, g := range m.groups {
		if mem, ok := g.members[prev.pmac]; ok {
			delete(g.members, prev.pmac)
			g.members[v.PMAC] = member{edge: v.Switch, src: mem.src}
			changed = true
		}
	}
	if changed {
		m.recomputeGroups()
	}
}

// handleARP is the proxy-ARP service (paper §3.3): answer from the
// registry, or fall back to a broadcast on every edge switch's host
// ports.
func (m *Manager) handleARP(v ctrlmsg.ARPQuery) {
	m.Stats.ARPQueries++
	m.serveARP(v)
}

// serveARP answers one query from the registry. A miss while a resync
// is outstanding is parked rather than flooded: the target may simply
// not have been replayed yet, and a flood keyed off a half-built
// location map would go nowhere. Parked queries are re-served the
// moment the last switch reports (handleSyncDone) — which is what
// lets a fresh ARP issued the instant a manager restarts resolve
// within one resync round instead of a full host-side retry.
func (m *Manager) serveARP(v ctrlmsg.ARPQuery) {
	if rec, ok := m.ips[v.TargetIP]; ok {
		m.Stats.ARPHits++
		m.jou.Record(obs.MgrARPHit, uint64(v.Switch), v.QueryID, ip4u32(v.TargetIP), 0)
		m.send(v.Switch, ctrlmsg.ARPAnswer{QueryID: v.QueryID, Found: true, TargetIP: v.TargetIP, PMAC: rec.pmac})
		return
	}
	if m.syncWaiting > 0 {
		m.jou.Record(obs.MgrARPParked, uint64(v.Switch), v.QueryID, ip4u32(v.TargetIP), 0)
		m.pendingARP = append(m.pendingARP, v)
		return
	}
	m.Stats.ARPMisses++
	m.jou.Record(obs.MgrARPMiss, uint64(v.Switch), v.QueryID, ip4u32(v.TargetIP), 0)
	m.send(v.Switch, ctrlmsg.ARPAnswer{QueryID: v.QueryID, Found: false, TargetIP: v.TargetIP})
	flood := ctrlmsg.ARPFlood{QueryID: v.QueryID, SenderPMAC: v.SenderPMAC, SenderIP: v.SenderIP, TargetIP: v.TargetIP}
	// Flood in ID order: under CtrlLoss every send draws from the
	// engine RNG, so map-order iteration here would make the whole
	// run's random stream depend on Go map layout. The target list is
	// the cached edge set — one batch, no per-miss sort or filter.
	for _, id := range m.edgeSwitchIDs() {
		m.send(id, flood)
	}
}

// handleARPBatch serves one batched punt. Hits and immediate misses
// are answered together in a single ARPAnswerBatch and the whole batch
// records one journal event — the amortization that makes batching pay
// at storm rates. Misses still flood individually (floods are rare and
// latency-critical), and queries that race a resync are parked exactly
// like unbatched ones, to be re-served one at a time on sync-done.
func (m *Manager) handleARPBatch(v ctrlmsg.ARPQueryBatch) {
	m.Stats.ARPBatches++
	m.Stats.BatchedQueries += int64(len(v.Queries))
	m.Stats.ARPQueries += int64(len(v.Queries))
	answers := make([]ctrlmsg.ARPAnswerItem, 0, len(v.Queries))
	hits, misses := 0, 0
	for _, q := range v.Queries {
		if rec, ok := m.ips[q.TargetIP]; ok {
			m.Stats.ARPHits++
			hits++
			answers = append(answers, ctrlmsg.ARPAnswerItem{
				QueryID: q.QueryID, Found: true, TargetIP: q.TargetIP, PMAC: rec.pmac,
			})
			continue
		}
		if m.syncWaiting > 0 {
			m.jou.Record(obs.MgrARPParked, uint64(v.Switch), q.QueryID, ip4u32(q.TargetIP), 0)
			m.pendingARP = append(m.pendingARP, ctrlmsg.ARPQuery{
				Switch: v.Switch, QueryID: q.QueryID,
				SenderPMAC: q.SenderPMAC, SenderIP: q.SenderIP, TargetIP: q.TargetIP,
			})
			continue
		}
		m.Stats.ARPMisses++
		misses++
		answers = append(answers, ctrlmsg.ARPAnswerItem{
			QueryID: q.QueryID, Found: false, TargetIP: q.TargetIP,
		})
		flood := ctrlmsg.ARPFlood{QueryID: q.QueryID, SenderPMAC: q.SenderPMAC, SenderIP: q.SenderIP, TargetIP: q.TargetIP}
		for _, id := range m.edgeSwitchIDs() {
			m.send(id, flood)
		}
	}
	m.jou.Record(obs.MgrARPBatch, uint64(v.Switch), uint64(len(v.Queries)), uint64(hits), uint64(misses))
	if len(answers) > 0 {
		m.send(v.Switch, ctrlmsg.ARPAnswerBatch{Answers: answers})
	}
}

// handleFault merges a port report into the graph and fault matrix,
// then recomputes routing exclusions and multicast trees.
func (m *Manager) handleFault(v ctrlmsg.FaultNotify) {
	if v.PeerID == v.Switch {
		return
	}
	key := mkPair(v.Switch, v.PeerID)
	l, ok := m.links[key]
	if !ok {
		l = &linkState{lo: key.lo, hi: key.hi, loPort: -1, hiPort: -1, loUp: true, hiUp: true}
		m.links[key] = l
		m.indexLink(l.lo, l)
		m.indexLink(l.hi, l)
		m.routesDirty = true
	}
	wasUp := l.up()
	if v.Switch == l.lo {
		l.loPort = int(v.Port)
		l.loUp = !v.Down
	} else {
		l.hiPort = int(v.Port)
		l.hiUp = !v.Down
	}
	if wasUp != l.up() {
		m.routesDirty = true
		if l.up() {
			m.downLinks--
			m.jou.Record(obs.MgrLinkUp, uint64(l.lo), uint64(l.hi), 0, 0)
		} else {
			m.downLinks++
			m.jou.Record(obs.MgrLinkDown, uint64(l.lo), uint64(l.hi), 0, 0)
		}
	}
	m.noteLoc(v.Switch, v.LocalLoc)
	m.notePod(v.LocalLoc.Pod)
	if _, known := m.locs[v.PeerID]; !known || v.PeerLoc.Level != ctrlmsg.LevelUnknown {
		m.noteLoc(v.PeerID, v.PeerLoc)
		m.notePod(v.PeerLoc.Pod)
	}
	if v.Down {
		m.Stats.FaultEvents++
	}
	m.recomputeRoutes()
	m.recomputeGroups()
}

// handleJoin updates group membership and reinstalls the tree.
func (m *Manager) handleJoin(v ctrlmsg.McastJoin) {
	g, ok := m.groups[v.Group]
	if !ok {
		g = &group{members: make(map[ether.Addr]member), installed: make(map[ctrlmsg.SwitchID][]uint8)}
		m.groups[v.Group] = g
	}
	if v.Join {
		g.members[v.HostPMAC] = member{edge: v.Switch, src: v.Source}
	} else {
		delete(g.members, v.HostPMAC)
	}
	m.installGroup(v.Group, g)
}

// handleDHCP leases an address: stable per client MAC, allocated
// from 10.200.0.0/16 (outside the static experiment range).
func (m *Manager) handleDHCP(v ctrlmsg.DHCPQuery) {
	m.Stats.DHCPQueries++
	ip, ok := m.leases[v.ClientMAC]
	if !ok {
		m.nextLease++
		n := m.nextLease
		ip = netip.AddrFrom4([4]byte{10, 200, byte(n >> 8), byte(n)})
		m.leases[v.ClientMAC] = ip
	}
	m.send(v.Switch, ctrlmsg.DHCPAnswer{QueryID: v.QueryID, XID: v.XID, IP: ip})
}

// Leases returns the number of DHCP leases handed out.
func (m *Manager) Leases() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leases)
}

// NumHosts returns the registry size.
func (m *Manager) NumHosts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ips)
}

// StatsSnapshot returns a copy of the counter block taken under the
// manager's lock. Goroutines other than the sessions' (a daemon's stats
// reporter, say) must read the counters through it, never Stats
// directly.
func (m *Manager) StatsSnapshot() Counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.Stats
}

// Lookup resolves an IP from the registry (for tests and tools).
func (m *Manager) Lookup(ip netip.Addr) (ether.Addr, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.ips[ip]
	return rec.pmac, ok
}

// Locations returns a copy of the location table.
func (m *Manager) Locations() map[ctrlmsg.SwitchID]ctrlmsg.Loc {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[ctrlmsg.SwitchID]ctrlmsg.Loc, len(m.locs))
	for k, v := range m.locs {
		out[k] = v
	}
	return out
}

// noteLoc is the single write path into the location table; it keeps
// the sorted-ID caches coherent. A brand-new switch dirties both
// lists; a level transition (switch replaced/recovered into another
// role) dirties the edge list. Any real change dirties the routes.
func (m *Manager) noteLoc(id ctrlmsg.SwitchID, loc ctrlmsg.Loc) {
	old, known := m.locs[id]
	if known && old == loc {
		return
	}
	m.routesDirty = true
	if !known {
		m.idsDirty = true
		m.edgesDirty = true
	} else if old.Level != loc.Level {
		m.edgesDirty = true
	}
	if loc.Level == ctrlmsg.LevelEdge && loc.Pod < podSentinel {
		m.pods[id] = loc.Pod
	}
	m.locs[id] = loc
}

// sortedSwitchIDs returns the known switches in ID order for
// deterministic iteration. The returned slice is a shared cache;
// callers must not mutate or retain it across manager calls.
func (m *Manager) sortedSwitchIDs() []ctrlmsg.SwitchID {
	if m.idsDirty {
		m.idsSorted = m.idsSorted[:0]
		for id := range m.locs {
			m.idsSorted = append(m.idsSorted, id)
		}
		sort.Slice(m.idsSorted, func(i, j int) bool { return m.idsSorted[i] < m.idsSorted[j] })
		m.idsDirty = false
	}
	return m.idsSorted
}

// edgeSwitchIDs returns the ID-sorted edge switches (the ARP-flood
// fan-out set), with the same sharing caveat as sortedSwitchIDs.
func (m *Manager) edgeSwitchIDs() []ctrlmsg.SwitchID {
	if m.edgesDirty {
		m.edgeIDs = m.edgeIDs[:0]
		for _, id := range m.sortedSwitchIDs() {
			if m.locs[id].Level == ctrlmsg.LevelEdge {
				m.edgeIDs = append(m.edgeIDs, id)
			}
		}
		m.edgesDirty = false
	}
	return m.edgeIDs
}

// linksOf returns the graph edges incident to id, sorted by peer. The
// returned slice is the adjacency index itself; callers must not
// mutate or retain it across manager calls.
func (m *Manager) linksOf(id ctrlmsg.SwitchID) []*linkState { return m.adj[id] }

// indexLink inserts l into id's peer-sorted adjacency list.
func (m *Manager) indexLink(id ctrlmsg.SwitchID, l *linkState) {
	ls := append(m.adj[id], nil)
	peer := l.other(id)
	i := len(ls) - 1
	for ; i > 0 && ls[i-1].other(id) > peer; i-- {
		ls[i] = ls[i-1]
	}
	ls[i] = l
	m.adj[id] = ls
}

// peerLink is one neighbour of a switch and the link that reaches it.
type peerLink struct {
	id ctrlmsg.SwitchID
	l  *linkState
}

// isCore/isAgg/isEdge classify by the last reported location.
func (m *Manager) level(id ctrlmsg.SwitchID) uint8 { return m.locs[id].Level }

// recomputeRoutes derives the full desired exclusion set from the
// fault matrix (paper §3.5) and pushes deltas to affected switches.
//
// Reachability cascades down the tree:
//
//  1. A core can deliver to pod P (or to edge position q in P) only
//     through its aggregation neighbors in P with live links; when
//     observed faults sever them all, every aggregation switch that
//     might pick that core for P (or (P,q)) is told to exclude it.
//  2. An aggregation switch in pod Q can deliver to a remote (P,q)
//     only through cores that can; when all of its cores are severed
//     (e.g. the whole core group's descent into P runs through one
//     failed aggregation switch), the edges below it are told to
//     exclude it for (P,q).
//  3. Within pod P, an aggregation switch that lost its link to the
//     edge at position q is excluded by P's other edges for (P,q).
//
// Exclusions are derived only from observed faults: unknown adjacency
// is assumed healthy, so an incompletely-discovered fabric never
// blackholes itself.
//
// A trigger that finds routesDirty clear returns at once: none of the
// inputs changed since the last run, whose result is installed.
func (m *Manager) recomputeRoutes() {
	if !m.routesDirty {
		return
	}
	m.routesDirty = false
	// Fast path: a healthy fault matrix implies an empty exclusion
	// set; if none are installed either, there is nothing to diff.
	// This is what keeps the manager O(1) under the storm of
	// adjacency reports a booting fabric produces.
	if m.downLinks == 0 && len(m.excl) == 0 {
		return
	}
	desired := make(map[ctrlmsg.SwitchID]map[exclKey]bool)
	add := func(target ctrlmsg.SwitchID, k exclKey) {
		s, ok := desired[target]
		if !ok {
			s = make(map[exclKey]bool)
			desired[target] = s
		}
		s[k] = true
	}

	ids := m.sortedSwitchIDs()

	// Indexes.
	podEdges := make(map[uint16][]ctrlmsg.SwitchID)
	var aggs, cores []ctrlmsg.SwitchID
	for _, id := range ids {
		switch m.level(id) {
		case ctrlmsg.LevelEdge:
			podEdges[m.locs[id].Pod] = append(podEdges[m.locs[id].Pod], id)
		case ctrlmsg.LevelAggregation:
			aggs = append(aggs, id)
		case ctrlmsg.LevelCore:
			cores = append(cores, id)
		}
	}

	// linkState2 looks up a link not already in hand.
	linkState2 := func(a, b ctrlmsg.SwitchID) (up, known bool) {
		l, ok := m.links[mkPair(a, b)]
		if !ok {
			return false, false
		}
		return l.up(), true
	}
	// neighborsOf lists id's neighbours at level in peer order, each
	// with the link that reaches it. The lists share m.nbrBuf: appends
	// past a list's end, or into a regrown array, leave it intact.
	nbrs := m.nbrBuf[:0]
	neighborsOf := func(id ctrlmsg.SwitchID, level uint8) []peerLink {
		start, links := len(nbrs), m.linksOf(id)
		for _, l := range links {
			if n := l.other(id); m.level(n) == level {
				nbrs = append(nbrs, peerLink{n, l})
			}
		}
		return nbrs[start:len(nbrs):len(nbrs)]
	}

	type podPos struct {
		pod uint16
		pos uint8
	}
	// Tier 1: core reachability.
	coreReachPod := make(map[ctrlmsg.SwitchID]map[uint16]bool)
	coreReachPos := make(map[ctrlmsg.SwitchID]map[podPos]bool)
	for _, c := range cores {
		aggsByPod := make(map[uint16][]peerLink)
		for _, a := range neighborsOf(c, ctrlmsg.LevelAggregation) {
			pod := m.locs[a.id].Pod
			aggsByPod[pod] = append(aggsByPod[pod], a)
		}
		coreReachPod[c] = make(map[uint16]bool)
		coreReachPos[c] = make(map[podPos]bool)
		for pod, as := range aggsByPod {
			anyUp := false
			for _, a := range as {
				if a.l.up() {
					anyUp = true
					break
				}
			}
			coreReachPod[c][pod] = anyUp
			for _, e := range podEdges[pod] {
				q := m.locs[e].Pos
				reach := false
				for _, a := range as {
					if !a.l.up() {
						continue
					}
					if up, known := linkState2(a.id, e); up || !known {
						reach = true
						break
					}
				}
				coreReachPos[c][podPos{pod, q}] = reach
			}
		}
	}
	// Push tier-1 exclusions to aggregation switches adjacent to each
	// core (pods other than the destination).
	for _, c := range cores {
		neigh := neighborsOf(c, ctrlmsg.LevelAggregation)
		for pod, ok := range coreReachPod[c] {
			if ok {
				continue
			}
			for _, n := range neigh {
				if m.locs[n.id].Pod != pod {
					add(n.id, exclKey{via: c, pod: pod, pos: ctrlmsg.AnyPos})
				}
			}
		}
		for pp, ok := range coreReachPos[c] {
			if ok || !coreReachPod[c][pp.pod] {
				continue // pod-wide exclusion already covers it
			}
			for _, n := range neigh {
				if m.locs[n.id].Pod != pp.pod {
					add(n.id, exclKey{via: c, pod: pp.pod, pos: pp.pos})
				}
			}
		}
	}

	// Unknown adjacency reads as reachable: a core we have never seen
	// linked into a pod must not be excluded (bootstrap safety).
	corePodReach := func(c ctrlmsg.SwitchID, pod uint16) bool {
		v, known := coreReachPod[c][pod]
		return v || !known
	}
	corePosReach := func(c ctrlmsg.SwitchID, pp podPos) bool {
		v, known := coreReachPos[c][pp]
		return v || !known
	}

	// Tier 2: aggregation reachability toward remote (pod, pos), and
	// the edge-level exclusions it implies.
	for _, x := range aggs {
		xPod := m.locs[x].Pod
		coreLinks := neighborsOf(x, ctrlmsg.LevelCore)
		if len(coreLinks) == 0 {
			continue // adjacency not yet discovered; assume healthy
		}
		edgesBelow := neighborsOf(x, ctrlmsg.LevelEdge)
		for pod, es := range podEdges {
			if pod == xPod {
				continue
			}
			podReach := false
			for _, c := range coreLinks {
				if c.l.up() && corePodReach(c.id, pod) {
					podReach = true
					break
				}
			}
			if !podReach {
				for _, e := range edgesBelow {
					add(e.id, exclKey{via: x, pod: pod, pos: ctrlmsg.AnyPos})
				}
				continue
			}
			for _, dst := range es {
				q := m.locs[dst].Pos
				reach := false
				for _, c := range coreLinks {
					if c.l.up() && corePosReach(c.id, podPos{pod, q}) {
						reach = true
						break
					}
				}
				if !reach {
					for _, e := range edgesBelow {
						add(e.id, exclKey{via: x, pod: pod, pos: q})
					}
				}
			}
		}
	}

	// Tier 3: intra-pod position exclusions.
	for _, a := range aggs {
		pod := m.locs[a].Pod
		for _, e := range podEdges[pod] {
			up, known := linkState2(a, e)
			if !known || up {
				continue
			}
			q := m.locs[e].Pos
			for _, x := range podEdges[pod] {
				if x != e {
					add(x, exclKey{via: a, pod: pod, pos: q})
				}
			}
		}
	}

	// Diff against installed state and coalesce the whole trigger's
	// deltas into one (target, key)-sorted batch, then flush it in a
	// single pass. The order — targets ascending, adds in key order,
	// then removes in key order — is observable under CtrlLoss (each
	// send draws from the RNG), so assembly preserves it exactly; the
	// batch and key-sort buffers are reused across triggers.
	targets := make(map[ctrlmsg.SwitchID]bool)
	for id := range desired {
		targets[id] = true
	}
	for id := range m.excl {
		targets[id] = true
	}
	tids := m.targetBuf[:0]
	for id := range targets {
		tids = append(tids, id)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	deltas := m.deltaBuf[:0]
	for _, id := range tids {
		if _, connected := m.conns[id]; !connected {
			// No session yet (its Hello is still in flight — a race a
			// restarted manager under control loss hits routinely): a
			// push would vanish into m.send's no-op, so keep the old
			// installed view. The switch's LocationReport re-runs this
			// recompute once the session binds, and the diff against
			// the preserved state emits the missed deltas then.
			if have := m.excl[id]; have != nil {
				desired[id] = have
			} else {
				delete(desired, id)
			}
			continue
		}
		want := desired[id]
		have := m.excl[id]
		for _, k := range m.sortedExclKeys(want) {
			if !have[k] {
				deltas = append(deltas, exclDelta{target: id, key: k, add: true})
			}
		}
		for _, k := range m.sortedExclKeys(have) {
			if !want[k] {
				deltas = append(deltas, exclDelta{target: id, key: k, add: false})
			}
		}
	}
	for _, d := range deltas {
		k := d.key
		if d.add {
			m.Stats.ExclusionsSet++
			m.jou.Record(obs.MgrExclPush, uint64(d.target), uint64(k.via), uint64(k.pod), uint64(k.pos))
		} else {
			m.jou.Record(obs.MgrExclClear, uint64(d.target), uint64(k.via), uint64(k.pod), uint64(k.pos))
		}
		m.send(d.target, ctrlmsg.RouteExclude{Add: d.add, Via: k.via, DstPod: k.pod, DstPos: k.pos})
	}
	m.targetBuf = tids[:0]
	m.deltaBuf = deltas[:0]
	m.nbrBuf = nbrs[:0]
	m.excl = desired
}

// sortedExclKeys returns a set's keys ordered by (via, pod, pos) in
// the manager's reusable scratch buffer; the result is valid only
// until the next call.
func (m *Manager) sortedExclKeys(set map[exclKey]bool) []exclKey {
	ks := m.keyBuf[:0]
	for k := range set {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].via != ks[j].via {
			return ks[i].via < ks[j].via
		}
		if ks[i].pod != ks[j].pod {
			return ks[i].pod < ks[j].pod
		}
		return ks[i].pos < ks[j].pos
	})
	m.keyBuf = ks
	return ks
}
