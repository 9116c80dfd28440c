package experiments

import (
	"io"
	"net/netip"
	"time"

	"portland/internal/baseline"
	"portland/internal/core"
	"portland/internal/ether"
	"portland/internal/host"
	"portland/internal/ldp"
	"portland/internal/metrics"
	"portland/internal/obs"
	"portland/internal/runner"
	"portland/internal/sim"
	"portland/internal/topo"
	"portland/internal/workload"
)

// --- A1: ECMP multipath vs single spanning-tree path ---------------

// A1Config parameterizes the bisection-throughput ablation.
type A1Config struct {
	K        int
	Duration time.Duration
	FlowRate time.Duration // packet interval per flow
	Size     int
}

// DefaultA1 saturates a k=4 fabric with left→right pod flows.
func DefaultA1() A1Config {
	return A1Config{K: 4, Duration: 1 * time.Second, FlowRate: 15 * time.Microsecond, Size: 1400}
}

// A1Result compares delivered cross-section goodput.
type A1Result struct {
	Cfg          A1Config
	PortLandMbps float64
	BaselineMbps float64
	Speedup      float64
	// Report is the run's observability report (PortLand half only —
	// the baseline fabric has no journals); Print never reads it.
	Report *obs.Report
}

// a1Half is one fabric's goodput plus (for the PortLand half) its
// observability snapshot.
type a1Half struct {
	mbps float64
	cell obs.CellReport
}

// RunA1 sends one CBR flow per left-half host to a distinct
// right-half host at near line rate and measures aggregate goodput.
// PortLand spreads the flows over every core; the spanning tree
// funnels them through its single surviving root path. The two
// fabrics are independent engines and run as two runner cells.
func RunA1(cfg A1Config) (*A1Result, error) {
	halves, err := runner.Map(2, func(i int) (a1Half, error) {
		if i == 0 {
			// PortLand.
			rig := DefaultRig()
			rig.K = cfg.K
			f, err := rig.build()
			if err != nil {
				return a1Half{}, err
			}
			mbps := crossSectionGoodput(f.Eng, f.HostList(), cfg)
			return a1Half{mbps: mbps, cell: obsCell(f, 0, 0, rig.Seed)}, nil
		}
		// Baseline.
		spec, err := topo.FatTree(cfg.K)
		if err != nil {
			return a1Half{}, err
		}
		bf := baseline.BuildFabric(spec, 1, sim.LinkConfig{}, baseline.Config{})
		bf.Start()
		if err := bf.AwaitTree(20 * time.Second); err != nil {
			return a1Half{}, err
		}
		return a1Half{mbps: crossSectionGoodput(bf.Eng, bf.HostList(), cfg)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &A1Result{Cfg: cfg, PortLandMbps: halves[0].mbps, BaselineMbps: halves[1].mbps}
	if res.BaselineMbps > 0 {
		res.Speedup = res.PortLandMbps / res.BaselineMbps
	}
	res.Report = sweepReport("a1", DefaultRig().Seed, map[string]string{
		"k": itoa(cfg.K),
	}, []obs.CellReport{halves[0].cell})
	return res, nil
}

// crossSectionGoodput pairs each left-half host with a right-half
// host, resolves ARP with a gentle warm-up, then blasts CBR for the
// measurement window and reports the aggregate delivered rate.
func crossSectionGoodput(eng *sim.Engine, hosts []*host.Host, cfg A1Config) float64 {
	half := len(hosts) / 2
	var received int64
	measuring := false
	for i := 0; i < half; i++ {
		src, dst := hosts[i], hosts[half+i]
		port := uint16(23000 + i)
		dst.Endpoint().BindUDP(port, func(netip.Addr, uint16, ether.Payload) {
			if measuring {
				received += int64(cfg.Size)
			}
		})
		// One probe to resolve ARP before the blast.
		src.Endpoint().SendUDP(dst.IP(), port, port, 1)
	}
	eng.RunUntil(eng.Now() + time.Second)
	for i := 0; i < half; i++ {
		src, dst := hosts[i], hosts[half+i]
		port := uint16(23000 + i)
		eng.NewTicker(cfg.FlowRate, cfg.FlowRate, func() {
			src.Endpoint().SendUDP(dst.IP(), port, port, cfg.Size)
		})
	}
	eng.RunUntil(eng.Now() + 200*time.Millisecond) // ramp
	measuring = true
	start := eng.Now()
	eng.RunUntil(start + cfg.Duration)
	measuring = false
	return float64(received) * 8 / cfg.Duration.Seconds() / 1e6
}

// Print emits the comparison.
func (r *A1Result) Print(w io.Writer) {
	fprintf(w, "Ablation A1 — cross-section goodput: ECMP vs spanning tree (k=%d)\n", r.Cfg.K)
	hr(w)
	fprintf(w, "PortLand (ECMP over cores): %8.0f Mbps\n", r.PortLandMbps)
	fprintf(w, "Flat L2 (spanning tree):    %8.0f Mbps\n", r.BaselineMbps)
	fprintf(w, "speedup: %.2fx\n\n", r.Speedup)
}

// --- A2: LDP discovery time vs k -----------------------------------

// A2Row is one fat-tree degree's discovery time.
type A2Row struct {
	K         int
	Switches  int
	Discovery time.Duration
}

// A2Result is the sweep.
type A2Result struct {
	Rows []A2Row
	// Report is the run's observability report; Print never reads it.
	Report *obs.Report
}

// a2Cell pairs one degree's row with its observability snapshot.
type a2Cell struct {
	row  A2Row
	cell obs.CellReport
}

// RunA2 measures the virtual time from cold boot until every switch
// has resolved its location; each degree boots on its own engine, one
// runner cell per k.
func RunA2(ks []int) (*A2Result, error) {
	cells, err := runner.Map(len(ks), func(i int) (a2Cell, error) {
		k := ks[i]
		f, err := core.NewFatTree(k, core.Options{Seed: 1})
		if err != nil {
			return a2Cell{}, err
		}
		f.Start()
		deadline := 60 * time.Second
		for f.Eng.Now() < deadline && !f.AllResolved() {
			f.Eng.RunUntil(f.Eng.Now() + time.Millisecond)
		}
		if !f.AllResolved() {
			return a2Cell{}, errDiscoveryStalled
		}
		if err := f.CheckDiscovery(); err != nil {
			return a2Cell{}, err
		}
		row := A2Row{
			K:         k,
			Switches:  len(f.Spec.Switches()),
			Discovery: f.Eng.Now(),
		}
		return a2Cell{row: row, cell: obsCell(f, i, 0, 1)}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &A2Result{}
	res.Report = sweepReport("a2", 1, nil, nil)
	for _, c := range cells {
		res.Rows = append(res.Rows, c.row)
		res.Report.Cells = append(res.Report.Cells, c.cell)
	}
	return res, nil
}

const errDiscoveryStalled = errString("a2: discovery did not complete")

// Print emits the sweep.
func (r *A2Result) Print(w io.Writer) {
	fprintf(w, "Ablation A2 — LDP location-discovery time vs fat-tree degree\n")
	hr(w)
	fprintf(w, "%4s %10s %14s\n", "k", "switches", "discovery")
	for _, row := range r.Rows {
		fprintf(w, "%4d %10d %14v\n", row.K, row.Switches, row.Discovery)
	}
	fprintf(w, "\n")
}

// --- A3: proxy ARP vs broadcast ARP --------------------------------

// A3Result compares the network cost of one address resolution.
type A3Result struct {
	K int
	// Report is the run's observability report (PortLand half only);
	// Print never reads it.
	Report *obs.Report
	// PortLand: control messages + frames touched per resolution.
	PLCtrlMsgs   float64
	PLDataFrames float64
	// Baseline: total frame deliveries per resolution (flood).
	BLDataFrames float64
	HostsHearing float64 // hosts disturbed per resolution (baseline)
}

// a3Half carries one fabric's share of the A3 measurement; the two
// fabrics are independent engines and run as two runner cells.
type a3Half struct {
	ctrlMsgs     float64
	dataFrames   float64
	hostsHearing float64
	cell         obs.CellReport
}

// RunA3 measures per-resolution cost in both fabrics.
func RunA3(k int, resolutions int) (*A3Result, error) {
	halves, err := runner.Map(2, func(i int) (a3Half, error) {
		if i == 0 {
			return runA3PortLand(k, resolutions)
		}
		return runA3Baseline(k, resolutions)
	})
	if err != nil {
		return nil, err
	}
	return &A3Result{
		K:            k,
		PLCtrlMsgs:   halves[0].ctrlMsgs,
		PLDataFrames: halves[0].dataFrames,
		BLDataFrames: halves[1].dataFrames,
		HostsHearing: halves[1].hostsHearing,
		Report: sweepReport("a3", DefaultRig().Seed, map[string]string{
			"k":           itoa(k),
			"resolutions": itoa(resolutions),
		}, []obs.CellReport{halves[0].cell}),
	}, nil
}

func runA3PortLand(k, resolutions int) (a3Half, error) {
	var out a3Half
	rig := DefaultRig()
	rig.K = k
	f, err := rig.build()
	if err != nil {
		return out, err
	}
	// Pre-measure the LDP keepalive background so it can be
	// subtracted from the storm window.
	f.RunFor(100 * time.Millisecond)
	bg0 := linkDelivered(f.Links)
	f.RunFor(1 * time.Second)
	bgPerSec := float64(linkDelivered(f.Links) - bg0)

	toMgr0, fromMgr0 := f.ControlStats()
	delivered0 := linkDelivered(f.Links)
	n := workload.ARPStorm(f.HostList(), resolutions)
	const window = 2 * time.Second
	f.RunFor(window)
	toMgr1, fromMgr1 := f.ControlStats()
	delivered1 := linkDelivered(f.Links)
	out.ctrlMsgs = float64(toMgr1.Msgs-toMgr0.Msgs+fromMgr1.Msgs-fromMgr0.Msgs) / float64(n)
	out.dataFrames = (float64(delivered1-delivered0) - bgPerSec*window.Seconds()) / float64(n)
	out.cell = obsCell(f, 0, 0, rig.Seed)
	return out, nil
}

func runA3Baseline(k, resolutions int) (a3Half, error) {
	var out a3Half
	spec, err := topo.FatTree(k)
	if err != nil {
		return out, err
	}
	bf := baseline.BuildFabric(spec, 1, sim.LinkConfig{}, baseline.Config{})
	bf.Start()
	if err := bf.AwaitTree(20 * time.Second); err != nil {
		return out, err
	}
	// Pre-measure the BPDU background rate.
	bbg0 := linkDelivered(bf.Links)
	bf.RunFor(1 * time.Second)
	bBgPerSec := float64(linkDelivered(bf.Links) - bbg0)

	bDelivered0 := linkDelivered(bf.Links)
	var hostsIn0 int64
	for _, h := range bf.HostList() {
		hostsIn0 += h.Stats.FramesIn
	}
	bn := workload.ARPStorm(bf.HostList(), resolutions)
	const bWindow = 4 * time.Second
	bf.RunFor(bWindow)
	bDelivered1 := linkDelivered(bf.Links)
	var hostsIn1 int64
	for _, h := range bf.HostList() {
		hostsIn1 += h.Stats.FramesIn
	}
	out.dataFrames = (float64(bDelivered1-bDelivered0) - bBgPerSec*bWindow.Seconds()) / float64(bn)
	// Hosts also hear periodic BPDUs on their access links; subtract
	// that background (one BPDU per host per hello).
	hello := baseline.DefaultConfig.Hello
	bpduPerHost := bWindow.Seconds() / hello.Seconds()
	out.hostsHearing = float64(hostsIn1-hostsIn0)/float64(bn) - bpduPerHost*float64(len(bf.HostList()))/float64(bn)
	return out, nil
}

// Print emits the comparison.
func (r *A3Result) Print(w io.Writer) {
	fprintf(w, "Ablation A3 — cost of one ARP resolution (k=%d fabric)\n", r.K)
	hr(w)
	fprintf(w, "PortLand:  %.1f control msgs + %.1f fabric frames per resolution\n", r.PLCtrlMsgs, r.PLDataFrames)
	fprintf(w, "Flat L2:   %.1f fabric frames per resolution, %.1f host NICs disturbed\n", r.BLDataFrames, r.HostsHearing)
	fprintf(w, "\n")
}

func linkDelivered(links []*sim.Link) int64 {
	var n int64
	for _, l := range links {
		n += l.Delivered()
	}
	return n
}

// --- A4: LDM interval sweep ----------------------------------------

// A4Row is one LDM-interval point.
type A4Row struct {
	Interval    time.Duration
	Convergence metrics.Summary // ms over trials
	LDMsPerSec  float64         // per switch, steady state
}

// A4Result is the sweep.
type A4Result struct {
	Rows []A4Row
	// Report is the run's observability report; Print never reads it.
	Report *obs.Report
}

// a4Trial is one (interval, trial) cell's contribution.
type a4Trial struct {
	sample    float64
	hasSample bool
	ldmRate   float64
	cell      obs.CellReport
}

func runA4Cell(iv time.Duration, trial int) (a4Trial, error) {
	var out a4Trial
	rig := DefaultRig()
	rig.Seed = uint64(trial) + 1
	rig.LDP = ldp.Config{Interval: iv}
	f, err := rig.build()
	if err != nil {
		return out, err
	}
	hosts := f.HostList()
	flow := workload.StartCBR(hosts[0], hosts[len(hosts)-1], 22000, time.Millisecond, 64)
	f.RunFor(500 * time.Millisecond)

	var ldm0 int64
	for _, id := range f.Spec.Switches() {
		ldm0 += f.Switches[id].Agent().LDMsSent
	}
	link, err := busiestLink(f, 100*time.Millisecond, topo.Aggregation, topo.Core)
	if err != nil {
		return out, err
	}
	failAt := f.Eng.Now()
	f.FailLink(link)
	f.RunFor(2 * time.Second)
	var ldm1 int64
	for _, id := range f.Spec.Switches() {
		ldm1 += f.Switches[id].Agent().LDMsSent
	}
	out.ldmRate = float64(ldm1-ldm0) / 2.1 / float64(len(f.Spec.Switches()))

	if conv, ok := flow.RX.ConvergenceAfter(failAt, time.Millisecond); ok && conv > 2*time.Millisecond {
		out.sample, out.hasSample = metrics.Ms(conv), true
	}
	flow.Stop()
	out.cell = obsCell(f, 0, trial, rig.Seed)
	return out, nil
}

// RunA4 sweeps the LDM interval, measuring failure convergence (the
// gain) against keepalive overhead (the cost). The (interval, trial)
// grid fans out over the runner pool and merges in sweep order.
func RunA4(intervals []time.Duration, trials int) (*A4Result, error) {
	cells, err := runner.Grid(len(intervals), trials, func(point, trial int) (a4Trial, error) {
		return runA4Cell(intervals[point], trial)
	})
	if err != nil {
		return nil, err
	}
	res := &A4Result{}
	res.Report = sweepReport("a4", DefaultRig().Seed, map[string]string{
		"trials": itoa(trials),
	}, nil)
	for p, iv := range intervals {
		var samples []float64
		var ldmRate float64
		for _, tr := range cells[p] {
			res.Report.Cells = append(res.Report.Cells, tr.cell)
			if tr.hasSample {
				samples = append(samples, tr.sample)
			}
			ldmRate += tr.ldmRate
		}
		res.Rows = append(res.Rows, A4Row{
			Interval:    iv,
			Convergence: metrics.Summarize(samples),
			LDMsPerSec:  ldmRate / float64(trials),
		})
	}
	return res, nil
}

// Print emits the trade-off table.
func (r *A4Result) Print(w io.Writer) {
	fprintf(w, "Ablation A4 — LDM interval: failure convergence vs keepalive cost\n")
	hr(w)
	fprintf(w, "%10s  %26s  %14s\n", "interval", "convergence ms (med/mean/max)", "LDMs/s/switch")
	for _, row := range r.Rows {
		fprintf(w, "%10v  %8.1f %8.1f %8.1f  %14.0f\n",
			row.Interval, row.Convergence.Median, row.Convergence.Mean, row.Convergence.Max, row.LDMsPerSec)
	}
	fprintf(w, "\n")
}
