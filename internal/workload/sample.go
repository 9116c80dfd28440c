package workload

import (
	"math"
	"time"

	"portland/internal/topo"
)

// The trace samplers are pure functions of (seed, flow index): every
// draw hashes the pair instead of advancing a shared PRNG stream, so a
// flow's size, start time, and endpoints do not depend on evaluation
// order. That is what lets a parallel run build the exact trace a
// serial run builds, and lets tests replay any single flow
// without generating its predecessors.

// Distinct draw streams per flow, so e.g. the size draw and the
// locality-class draw of the same flow are independent.
const (
	streamSize uint64 = iota
	streamSize2
	streamBurst
	streamSpread
	streamSrc
	streamClass
	streamDst
)

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on
// 64-bit words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// drawHash hashes (seed, index, stream) into an unbiased 64-bit word.
func drawHash(seed, index, stream uint64) uint64 {
	h := mix64(seed + 0x9e3779b97f4a7c15*(stream+1))
	return mix64(h ^ (index+1)*0xd1342543de82ef95)
}

// u01 returns a uniform draw in [0,1) for (seed, index, stream).
func u01(seed, index, stream uint64) float64 {
	return float64(drawHash(seed, index, stream)>>11) / (1 << 53)
}

// SizeSampler draws a flow's size in packets as a pure function of
// (seed, flow index).
type SizeSampler interface {
	Packets(seed, index uint64) int
}

// Pareto is a bounded Pareto (power-law) flow-size distribution in
// packets — the heavy-tailed shape measured in data-center traces:
// most flows are mice near Min, a small fraction are elephants near
// Max. Alpha is the tail exponent (smaller = heavier tail; DC traces
// fit ~1.05–1.5).
type Pareto struct {
	Alpha    float64
	Min, Max int
}

// Packets draws via the bounded-Pareto inverse CDF.
func (p Pareto) Packets(seed, index uint64) int {
	u := u01(seed, index, streamSize)
	lo, hi := float64(p.Min), float64(p.Max)
	// F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a), inverted at u.
	la := math.Pow(lo/hi, p.Alpha)
	x := lo / math.Pow(1-u*(1-la), 1/p.Alpha)
	n := int(x)
	if n < p.Min {
		n = p.Min
	}
	if n > p.Max {
		n = p.Max
	}
	return n
}

// LogNormal is a log-normal flow-size distribution in packets: Mu and
// Sigma parameterize ln(size). Sizes clamp to [1, Max].
type LogNormal struct {
	Mu, Sigma float64
	Max       int
}

// Packets draws via Box–Muller on two hashed uniforms.
func (l LogNormal) Packets(seed, index uint64) int {
	u1 := u01(seed, index, streamSize)
	u2 := u01(seed, index, streamSize2)
	z := math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
	n := int(math.Exp(l.Mu + l.Sigma*z))
	if n < 1 {
		n = 1
	}
	if n > l.Max {
		n = l.Max
	}
	return n
}

// Arrivals places flow starts as a Poisson cluster (burst) process:
// Bursts burst centers fall uniformly over Window — the order
// statistics of a homogeneous Poisson process — and flow i attaches to
// center i%Bursts at an Exp(Spread) offset. Spread≈0 gives
// synchronized bursts (incast-like); large Spread smears back toward
// plain Poisson arrivals.
type Arrivals struct {
	Window time.Duration
	Bursts int
	Spread time.Duration
}

// Start returns flow index's start offset as a pure function of
// (seed, index).
func (a Arrivals) Start(seed, index uint64) time.Duration {
	bursts := a.Bursts
	if bursts < 1 {
		bursts = 1
	}
	b := index % uint64(bursts)
	center := time.Duration(u01(seed, b, streamBurst) * float64(a.Window))
	off := time.Duration(-math.Log(1-u01(seed, index, streamSpread)) * float64(a.Spread))
	return center + off
}

// LocalityMix gives the fraction of flows whose destination shares the
// source's rack and (failing that) pod; the remainder crosses pods.
// Classes that are empty on the given placement (e.g. inter-pod on a
// one-pod fabric) fall through to the next-wider class.
type LocalityMix struct {
	IntraRack float64
	IntraPod  float64
}

// Placement maps host indices to racks and pods, derived from a
// topology blueprint, and supports O(1) uniform draws from "same
// rack", "same pod, different rack", and "different pod" sets.
type Placement struct {
	// PodOf and RackOf give each host's pod and (dense) rack id.
	PodOf, RackOf []int

	order      []int // host indices grouped by (pod, rack)
	posInOrder []int
	podStart   []int // span of each pod within order
	podLen     []int
	rackStart  []int // span of each rack within order
	rackLen    []int
}

// NewPlacement derives host→rack/pod structure from the blueprint:
// hosts are numbered in spec order (the same order the fabric builds
// them) and a rack is the edge switch a host wires to.
func NewPlacement(spec *topo.Spec) Placement {
	rackID := map[topo.NodeID]int{} // edge node -> dense rack id
	hostIdx := map[topo.NodeID]int{}
	var pl Placement
	for _, n := range spec.Nodes {
		if n.Level != topo.Host {
			continue
		}
		hostIdx[n.ID] = len(pl.PodOf)
		pl.PodOf = append(pl.PodOf, n.Pod)
		pl.RackOf = append(pl.RackOf, -1)
	}
	for _, l := range spec.Links {
		for _, pair := range [2][2]topo.PortRef{{l.A, l.B}, {l.B, l.A}} {
			h, ok := hostIdx[pair[0].Node]
			if !ok {
				continue
			}
			edge := pair[1].Node
			r, ok := rackID[edge]
			if !ok {
				r = len(rackID)
				rackID[edge] = r
			}
			pl.RackOf[h] = r
		}
	}
	n := len(pl.PodOf)
	pl.order = make([]int, n)
	for i := range pl.order {
		pl.order[i] = i
	}
	// Group hosts by (pod, rack) keeping host order within a rack.
	// Blueprints already emit hosts in that order, making this a
	// stable no-op for fat trees, but the sort keeps the span
	// arithmetic correct for any layout.
	sortByPodRack(pl.order, pl.PodOf, pl.RackOf)
	pl.posInOrder = make([]int, n)
	racks := len(rackID)
	pods := 0
	for _, p := range pl.PodOf {
		if p >= pods {
			pods = p + 1
		}
	}
	pl.podStart = make([]int, pods)
	pl.podLen = make([]int, pods)
	pl.rackStart = make([]int, racks)
	pl.rackLen = make([]int, racks)
	for pos, h := range pl.order {
		pl.posInOrder[h] = pos
		p, r := pl.PodOf[h], pl.RackOf[h]
		if pl.podLen[p] == 0 {
			pl.podStart[p] = pos
		}
		pl.podLen[p]++
		if r >= 0 {
			if pl.rackLen[r] == 0 {
				pl.rackStart[r] = pos
			}
			pl.rackLen[r]++
		}
	}
	return pl
}

// Hosts returns the number of hosts in the placement.
func (p Placement) Hosts() int { return len(p.PodOf) }

func sortByPodRack(order, podOf, rackOf []int) {
	// Insertion sort keyed by (pod, rack, host index): the input is
	// already sorted for every blueprint this repo builds, and n is
	// small relative to flow counts, so simplicity wins.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if podOf[a] < podOf[b] ||
				(podOf[a] == podOf[b] && (rackOf[a] < rackOf[b] ||
					(rackOf[a] == rackOf[b] && a < b))) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
}

// Pair draws flow index's (src, dst) as a pure function of
// (seed, index): src uniform over hosts, then the locality class draw
// picks dst uniformly within the class's candidate set.
func (m LocalityMix) Pair(p Placement, seed, index uint64) (src, dst int) {
	n := len(p.PodOf)
	if n < 2 {
		return 0, 0
	}
	src = int(drawHash(seed, index, streamSrc) % uint64(n))
	class := u01(seed, index, streamClass)
	h := drawHash(seed, index, streamDst)
	rack, pod := p.RackOf[src], p.PodOf[src]

	intraRack := func() (int, bool) {
		if rack < 0 || p.rackLen[rack] < 2 {
			return 0, false
		}
		c := p.rackLen[rack] - 1
		i := int(h % uint64(c))
		if i >= p.posInOrder[src]-p.rackStart[rack] {
			i++
		}
		return p.order[p.rackStart[rack]+i], true
	}
	intraPod := func() (int, bool) {
		rl := 0
		if rack >= 0 {
			rl = p.rackLen[rack]
		}
		c := p.podLen[pod] - rl
		if c < 1 {
			return 0, false
		}
		i := int(h % uint64(c))
		if rack >= 0 && i >= p.rackStart[rack]-p.podStart[pod] {
			i += rl
		}
		return p.order[p.podStart[pod]+i], true
	}
	interPod := func() (int, bool) {
		c := n - p.podLen[pod]
		if c < 1 {
			return 0, false
		}
		i := int(h % uint64(c))
		if i >= p.podStart[pod] {
			i += p.podLen[pod]
		}
		return p.order[i], true
	}

	var try []func() (int, bool)
	switch {
	case class < m.IntraRack:
		try = []func() (int, bool){intraRack, intraPod, interPod}
	case class < m.IntraRack+m.IntraPod:
		try = []func() (int, bool){intraPod, interPod, intraRack}
	default:
		try = []func() (int, bool){interPod, intraPod, intraRack}
	}
	for _, f := range try {
		if d, ok := f(); ok {
			return src, d
		}
	}
	return src, (src + 1) % n
}

// FlowSpec is one sampled flow of a trace.
type FlowSpec struct {
	Src, Dst         int
	Start            time.Duration
	Packets          int
	SrcPort, DstPort uint16
}

// TraceConfig parameterizes a trace: how many flows, their arrival
// process, size distribution, and locality mix. Every flow is a pure
// function of (Seed, index) given a Placement.
type TraceConfig struct {
	Seed  uint64
	Flows int

	Arrivals Arrivals
	Size     SizeSampler
	Locality LocalityMix

	// PacketGap spaces a flow's packets; PayloadBytes sizes each UDP
	// payload.
	PacketGap    time.Duration
	PayloadBytes int

	// Flows target BasePort..BasePort+DstPorts-1 (each receiver binds
	// that range); source ports spread over a wide range so flows
	// hash independently in the fabric.
	BasePort uint16
	DstPorts int
}

// Flow materializes flow index i. Pure in (c.Seed, i): calling it in
// any order, from any goroutine, yields the identical spec.
func (c TraceConfig) Flow(p Placement, i int) FlowSpec {
	idx := uint64(i)
	src, dst := c.Locality.Pair(p, c.Seed, idx)
	pkts := 1
	if c.Size != nil {
		pkts = c.Size.Packets(c.Seed, idx)
	}
	ports := c.DstPorts
	if ports < 1 {
		ports = 1
	}
	return FlowSpec{
		Src:     src,
		Dst:     dst,
		Start:   c.Arrivals.Start(c.Seed, idx),
		Packets: pkts,
		SrcPort: uint16(1024 + i%60000),
		DstPort: c.BasePort + uint16(i%ports),
	}
}
