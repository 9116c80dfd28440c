package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"portland/internal/core"
	"portland/internal/faults"
	"portland/internal/obs"
	"portland/internal/workload"
)

// A workload's set-up builds one repetition: a fabric with its load
// armed. Everything before the measured phase is set-up; the measured
// phase then steps virtual time 1 ms at a time until done reports true.
// All load is open-loop in virtual time, so a slower simulator is
// offered the same work.
type setupFunc func(seed uint64, t *tracer) (*rep, error)

// rep is one repetition's live state and modelled results.
type rep struct {
	f *core.Fabric
	// discovery is the virtual time from Start until the last switch
	// resolved its location.
	discovery time.Duration
	// spans holds the set-up span durations the per-layer report uses,
	// keyed by metric name.
	spans map[string]float64
	// begin, if set, starts the measured phase's work.
	begin func()
	// done reports whether the measured phase has finished.
	done func() bool
	// check verifies the repetition's outputs once the phase ends.
	check func(c obs.Counters) outcome
	// mgrCarry holds the counters of fabric-manager instances killed
	// during the run: a restart installs a fresh manager whose
	// counters start at zero.
	mgrCarry obs.Counters
	// conv holds per-fault outages of affected probe flows.
	conv []time.Duration
	// trace is the replayed trace, if any.
	trace *workload.Trace
}

// outcome is a repetition's correctness verdict.
type outcome struct {
	attempted, failed int64
	problems          []string
}

// The workloads, each chosen to load some layers and bypass others
// (BENCHMARK.json records why each was chosen):
//   - boot-k48 boots the paper's k=48 target and holds it in LDM
//     keepalive: sim substrate and LDP, nothing else;
//   - trace-k16 replays short bursty flows until drained: the write
//     path of the switches' flow tables, ARP punts to the manager, the
//     host stack and the Go runtime;
//   - churn-k16 runs long-lived probes through a composed fault
//     schedule: the manager's fault path, with flow-table hits.
var workloads = map[string]setupFunc{
	"boot-k48":  setupBoot,
	"trace-k16": setupTrace,
	"churn-k16": setupChurn,
}

// build builds a k-ary fat tree with default options apart from the
// seed.
func build(k int, seed uint64, t *tracer) (*rep, error) {
	r := &rep{spans: map[string]float64{}, mgrCarry: obs.Counters{}}
	var err error
	r.spans["span.build_s"] = t.call("core.NewFatTree", func() {
		r.f, err = core.NewFatTree(k, core.Options{Seed: seed})
	}).Seconds()
	return r, err
}

// bootK16 builds, starts and discovers the k=16 fabric the trace and
// churn workloads run on.
func bootK16(seed uint64, t *tracer) (*rep, error) {
	r, err := build(16, seed, t)
	if err != nil {
		return nil, err
	}
	t0 := r.f.Dom.Now()
	t.call("Fabric.Start", r.f.Start)
	t.call("Fabric.AwaitDiscovery", func() { err = r.f.AwaitDiscovery(2 * time.Second) })
	if err != nil {
		return nil, err
	}
	r.discovery = lastResolved(r.f) - t0
	return r, nil
}

// lastResolved reads the switch journals for the instant the last
// switch first resolved its location.
func lastResolved(f *core.Fabric) time.Duration {
	isSwitch := make(map[string]bool)
	for _, id := range f.Spec.Switches() {
		isSwitch[f.Switches[id].Name()] = true
	}
	var last time.Duration
	for _, j := range f.Obs.Journals() {
		if !isSwitch[j.Name()] {
			continue
		}
		for _, e := range j.Events() {
			if e.Kind == obs.LDPResolved {
				last = max(last, e.At)
				break
			}
		}
	}
	return last
}

// discoveryOutcome counts unresolved switches and checks the resolved
// locations against the blueprint.
func discoveryOutcome(f *core.Fabric) outcome {
	out := outcome{attempted: int64(len(f.Spec.Switches()))}
	for _, id := range f.Spec.Switches() {
		if !f.Switches[id].Resolved() {
			out.failed++
		}
	}
	if out.failed > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d switches unresolved", out.failed))
	}
	if err := f.CheckDiscovery(); err != nil {
		out.failed++
		out.problems = append(out.problems, "discovery check: "+err.Error())
	}
	return out
}

// bootPhase is boot-k48's measured phase in virtual time from Start:
// discovery takes about 300 ms and LDM keepalive fills the rest, so the
// phase holds the 1,000 1 ms steps a p99 needs.
const bootPhase = time.Second

// setupBoot only builds the fabric: starting it and discovering its
// locations is the measured work.
func setupBoot(seed uint64, t *tracer) (*rep, error) {
	r, err := build(48, seed, t)
	if err != nil {
		return nil, err
	}
	f := r.f
	t0 := f.Dom.Now()
	end := t0 + bootPhase
	resolved := false
	r.begin = func() { t.call("Fabric.Start", f.Start) }
	r.done = func() bool {
		// Read the journals as soon as discovery completes, before
		// keepalive chatter could age the resolution events out.
		if !resolved && f.AllResolved() {
			resolved = true
			r.discovery = lastResolved(f) - t0
		}
		return f.Dom.Now() >= end
	}
	r.check = func(obs.Counters) outcome { return discoveryOutcome(f) }
	return r, nil
}

// traceConfig is trace-k16's flow population: heavy-tailed 1-3 packet
// flows in 256 bursts over one second, 80% of them inter-pod.
func traceConfig(seed uint64) workload.TraceConfig {
	return workload.TraceConfig{
		Seed:         seed,
		Flows:        200_000,
		Arrivals:     workload.Arrivals{Window: time.Second, Bursts: 256, Spread: 2 * time.Millisecond},
		Size:         workload.Pareto{Alpha: 1.2, Min: 1, Max: 3},
		Locality:     workload.LocalityMix{IntraRack: 0.05, IntraPod: 0.15},
		PacketGap:    100 * time.Microsecond,
		PayloadBytes: 64,
		BasePort:     30000,
		DstPorts:     8,
	}
}

// tracePhase is trace-k16's measured phase in virtual time: the last
// arrivals fall a few ms after the 1 s window and drain well inside
// it, and it holds the 1,000 step samples a p99 needs. A fixed length
// keeps every seed's phase the same size.
const tracePhase = 1200 * time.Millisecond

func setupTrace(seed uint64, t *tracer) (*rep, error) {
	r, err := bootK16(seed, t)
	if err != nil {
		return nil, err
	}
	cfg := traceConfig(seed)
	r.spans["span.workload_setup_s"] = t.call("workload.StartTrace", func() {
		r.trace = workload.StartTrace(cfg, workload.NewPlacement(r.f.Spec), r.f.HostList())
	}).Seconds()
	var want int64
	for _, sp := range r.trace.Specs {
		want += int64(sp.Packets)
	}
	end := r.f.Dom.Now() + tracePhase
	r.done = func() bool { return r.f.Dom.Now() >= end }
	r.check = func(obs.Counters) outcome {
		out := outcome{attempted: want, failed: want - r.trace.Delivered()}
		if s := r.trace.Sent(); s != want {
			out.problems = append(out.problems, fmt.Sprintf("sent %d of %d scheduled packets", s, want))
		}
		if d := r.trace.Delivered(); d != r.trace.Sent() {
			out.problems = append(out.problems, fmt.Sprintf("delivered %d of %d sent packets", d, r.trace.Sent()))
		}
		return out
	}
	return r, nil
}

// churn-k16's shape. Every link or switch fault stays down longer than
// the 50 ms LDM miss timeout, so each one reaches the manager.
const (
	churnFlows  = 256
	probeEvery  = time.Millisecond
	faultDown   = 80 * time.Millisecond
	churnSettle = 500 * time.Millisecond
)

// churnSchedule composes the seeded fault story, in virtual time from
// the start of the measured phase: warm-up, a pod power-cycle, link
// flaps, a switch reboot wave, a manager kill and restart, and a VM
// migration storm. Phases do not overlap, so each link or switch fault
// has the fabric to itself and its outages are its own. It returns the
// schedule and the onsets whose outages count as convergence samples.
func churnSchedule(r *rand.Rand, f *core.Fabric, carry func()) (faults.Schedule, []time.Duration, error) {
	const ms = time.Millisecond
	var s faults.Schedule
	var onsets []time.Duration
	add := func(sc faults.Scenario, ok bool, measured bool) error {
		if !ok {
			return fmt.Errorf("fault generator for %q found no valid schedule", sc.Name)
		}
		s.Events = append(s.Events, sc.Schedule.Events...)
		if measured {
			for _, ev := range sc.Schedule.Events {
				onsets = append(onsets, ev.At)
			}
		}
		return nil
	}
	// A powered-off pod has no surviving path, so its outage is not a
	// convergence sample; it comes first so the pod has rejoined well
	// before the measured faults begin.
	sc, ok := faults.PodPower(r, f, faults.PodPowerConfig{Start: 200 * ms, Outage: faultDown})
	if err := add(sc, ok, false); err != nil {
		return s, nil, err
	}
	sc, ok = faults.Flap(r, f, faults.FlapConfig{Links: 16, Cycles: 3, Down: faultDown, Up: 120 * ms, Start: 1000 * ms})
	if err := add(sc, ok, true); err != nil {
		return s, nil, err
	}
	sc, ok = faults.RollingUpgrade(r, f, faults.RollingConfig{Count: 2, Stagger: 200 * ms, Down: faultDown, Start: 1600 * ms})
	if err := add(sc, ok, true); err != nil {
		return s, nil, err
	}
	s.Events = append(s.Events, faults.Event{At: 2000 * ms, Duration: 100 * ms, Manager: true, OnFail: carry})
	sc, ok = faults.ARPStorm(r, f, faults.StormConfig{VMs: 64, Gap: ms, Pause: 2 * ms, Start: 2200 * ms})
	if err := add(sc, ok, false); err != nil {
		return s, nil, err
	}
	return s, onsets, s.Validate(true)
}

func setupChurn(seed uint64, t *tracer) (*rep, error) {
	r, err := bootK16(seed, t)
	if err != nil {
		return nil, err
	}
	f := r.f
	rng := f.Eng.Rand()
	var flows []*workload.CBR
	r.spans["span.workload_setup_s"] = t.call("workload.StartCBR", func() {
		hosts := f.HostList()
		perm := workload.Permutation(rng, len(hosts))
		stride := len(hosts) / churnFlows
		for i := 0; i < churnFlows; i++ {
			src := i * stride
			flows = append(flows, workload.StartCBR(hosts[src], hosts[perm[src]], uint16(20000+i), probeEvery, 64))
		}
	}).Seconds()
	carry := func() {
		for k, v := range f.ObsCounters() {
			if strings.HasPrefix(k, "mgr.") {
				r.mgrCarry[k] += v
			}
		}
	}
	var sched faults.Schedule
	var onsets []time.Duration
	r.spans["span.faults_setup_s"] = t.call("faults.generators", func() {
		sched, onsets, err = churnSchedule(rng, f, carry)
	}).Seconds()
	if err != nil {
		return nil, err
	}
	base := f.Dom.Now()
	t.call("Schedule.Apply", func() { sched.Apply(f) })
	_, last := sched.Span()
	end := base + last + churnSettle
	r.done = func() bool { return f.Dom.Now() >= end }
	r.check = func(c obs.Counters) outcome {
		out := outcome{attempted: int64(len(flows))}
		if c["mgr.fault_events"] == 0 {
			out.problems = append(out.problems, "the manager registered no fault events")
		}
		for _, fl := range flows {
			if !steady(fl, end) {
				out.failed++
			}
		}
		if out.failed > 0 {
			out.problems = append(out.problems, fmt.Sprintf("%d probe flows not delivering steadily after the final settle", out.failed))
		}
		for _, on := range onsets {
			for _, fl := range flows {
				if d, ok := fl.RX.ConvergenceAfter(base+on, probeEvery); ok && d > 2*probeEvery {
					r.conv = append(r.conv, d)
				}
			}
		}
		return out
	}
	return r, nil
}

// steady reports whether a probe flow delivered without a gap over
// three probe intervals through the second half of the final settle,
// up to the end of the run.
func steady(fl *workload.CBR, end time.Duration) bool {
	from := end - churnSettle/2
	at, ok := fl.RX.SteadyAfter(from, 3*probeEvery)
	n := fl.RX.Len()
	return ok && at <= from+3*probeEvery && n > 0 && fl.RX.Times[n-1] >= end-3*probeEvery
}
