// Soft-state resync: everything a restarted (or newly promoted)
// fabric manager needs to rebuild its state from the fabric, plus the
// deterministic snapshot the recovery tests compare against.
package fabricmgr

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"portland/internal/ctrlmsg"
	"portland/internal/ctrlnet"
	"portland/internal/ether"
	"portland/internal/obs"
)

// podSentinel: pod numbers at or above this are the LDP "unknown" and
// core sentinels, not allocatable pods.
const podSentinel = 0xfffe

// notePod advances the pod allocator past an observed pod number so a
// restarted manager never re-issues a pod already in use. Called on
// every location observation (not just during resync) so a manager
// that learned pods passively holds the same allocator state as one
// that assigned them.
func (m *Manager) notePod(pod uint16) {
	if pod >= podSentinel {
		return
	}
	if pod >= m.nextPod {
		m.nextPod = pod + 1
	}
}

// noteLease records a replayed lease and advances the allocator past
// it (leases are 10.200.hi.lo with hi.lo the allocation index).
func (m *Manager) noteLease(mac ether.Addr, ip netip.Addr) {
	m.leases[mac] = ip
	a := ip.As4()
	if n := uint32(a[2])<<8 | uint32(a[3]); n > m.nextLease {
		m.nextLease = n
	}
}

// SetPassive puts the manager in mirror mode: it ingests every
// message (building the same soft state as the active manager sees)
// but transmits nothing. A warm standby runs passive until takeover.
func (m *Manager) SetPassive(p bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.passive = p
}

// SetOnSyncDone installs the callback fired when the last outstanding
// StateSyncRequest of an epoch is answered. The callback runs with
// the manager lock held — record the instant, don't call back in.
func (m *Manager) SetOnSyncDone(fn func(epoch uint32)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onSyncDone = fn
}

// BeginResync solicits a full state dump from every switch reachable
// over conns. The manager counts SyncDone replies for this epoch and
// fires the OnSyncDone callback when the fabric has fully reported.
// A lost request or reply leaves the count short; callers re-issue
// BeginResync (or run it over a Reliable channel) on lossy fabrics.
func (m *Manager) BeginResync(epoch uint32, conns []ctrlnet.Conn) {
	m.mu.Lock()
	m.syncEpoch = epoch
	m.syncWaiting = len(conns)
	m.jou.Record(obs.MgrResyncBegin, uint64(epoch), uint64(len(conns)), 0, 0)
	// Switches drop manager-owned state (exclusions, multicast
	// entries) when they receive StateSyncRequest, so whatever this
	// manager believes is installed out there no longer is. Reset the
	// installed-state bookkeeping so the recompute after the replays
	// pushes everything again — a restarted manager starts empty, but
	// a promoted standby inherits a mirror's bookkeeping and must not
	// trust it.
	m.excl = make(map[ctrlmsg.SwitchID]map[exclKey]bool)
	m.routesDirty = true
	for _, g := range m.groups {
		g.installed = make(map[ctrlmsg.SwitchID][]uint8)
	}
	m.mu.Unlock()
	// Send outside the lock: SimConn delivery is synchronous with the
	// event loop and replies re-enter Handle.
	for _, c := range conns {
		_ = c.Send(ctrlmsg.StateSyncRequest{Epoch: epoch})
	}
}

// SyncPending reports how many switches have not yet answered the
// current resync epoch.
func (m *Manager) SyncPending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncWaiting
}

func (m *Manager) handleSyncDone(v ctrlmsg.SyncDone) {
	if v.Epoch != m.syncEpoch || m.syncWaiting == 0 {
		return
	}
	m.syncWaiting--
	if m.syncWaiting > 0 {
		return
	}
	m.jou.Record(obs.MgrResyncDone, uint64(v.Epoch), uint64(len(m.pendingARP)), 0, 0)
	// The fabric has fully reported: re-serve ARP queries that missed
	// mid-resync. Anything still missing now is a genuine miss and
	// takes the flood path.
	pend := m.pendingARP
	m.pendingARP = nil
	for _, q := range pend {
		m.serveARP(q)
	}
	if m.onSyncDone != nil {
		m.onSyncDone(v.Epoch)
	}
}

// Snapshot serializes the manager's complete soft state in a
// deterministic text form. Two managers with byte-equal snapshots
// hold identical registries, topology graphs, fault matrices,
// exclusion sets, multicast state, leases and allocator positions —
// the recovery test's definition of "fully rebuilt".
func (m *Manager) Snapshot() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "alloc nextPod=%d nextLease=%d\n", m.nextPod, m.nextLease)

	for _, id := range m.sortedSwitchIDs() {
		fmt.Fprintf(&b, "loc %d %s\n", id, m.locs[id])
	}

	ips := make([]netip.Addr, 0, len(m.ips))
	for ip := range m.ips {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Less(ips[j]) })
	for _, ip := range ips {
		r := m.ips[ip]
		fmt.Fprintf(&b, "ip %s amac=%v pmac=%v edge=%d\n", ip, r.amac, r.pmac, r.edge)
	}

	pairs := make([]pairKey, 0, len(m.links))
	for k := range m.links {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].lo != pairs[j].lo {
			return pairs[i].lo < pairs[j].lo
		}
		return pairs[i].hi < pairs[j].hi
	})
	for _, k := range pairs {
		l := m.links[k]
		fmt.Fprintf(&b, "link %d/%d ports=%d/%d up=%v/%v\n", l.lo, l.hi, l.loPort, l.hiPort, l.loUp, l.hiUp)
	}

	exclIDs := make([]ctrlmsg.SwitchID, 0, len(m.excl))
	for id := range m.excl {
		exclIDs = append(exclIDs, id)
	}
	sort.Slice(exclIDs, func(i, j int) bool { return exclIDs[i] < exclIDs[j] })
	for _, id := range exclIDs {
		ks := make([]exclKey, 0, len(m.excl[id]))
		for k := range m.excl[id] {
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
		for _, k := range ks {
			fmt.Fprintf(&b, "excl %d via=%d dst=%d/%d\n", id, k.via, k.pod, k.pos)
		}
	}

	gids := make([]uint32, 0, len(m.groups))
	for gid := range m.groups {
		gids = append(gids, gid)
	}
	sort.Slice(gids, func(i, j int) bool { return gids[i] < gids[j] })
	for _, gid := range gids {
		g := m.groups[gid]
		if len(g.members) == 0 {
			continue // an emptied group is semantically absent
		}
		pms := make([]ether.Addr, 0, len(g.members))
		for pm := range g.members {
			pms = append(pms, pm)
		}
		sort.Slice(pms, func(i, j int) bool { return bytes.Compare(pms[i][:], pms[j][:]) < 0 })
		for _, pm := range pms {
			mem := g.members[pm]
			fmt.Fprintf(&b, "group %d member=%v edge=%d src=%v\n", gid, pm, mem.edge, mem.src)
		}
		sids := make([]ctrlmsg.SwitchID, 0, len(g.installed))
		for id := range g.installed {
			sids = append(sids, id)
		}
		sort.Slice(sids, func(i, j int) bool { return sids[i] < sids[j] })
		for _, id := range sids {
			fmt.Fprintf(&b, "group %d install sw=%d ports=%v\n", gid, id, g.installed[id])
		}
	}

	macs := make([]ether.Addr, 0, len(m.leases))
	for mac := range m.leases {
		macs = append(macs, mac)
	}
	sort.Slice(macs, func(i, j int) bool { return bytes.Compare(macs[i][:], macs[j][:]) < 0 })
	for _, mac := range macs {
		fmt.Fprintf(&b, "lease %v %s\n", mac, m.leases[mac])
	}
	return b.String()
}
