// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the simulator's defaults (zero-value core.Options
// apart from the seed, one serial engine, one manager shard, unbounded
// tables), checks the workload's outputs, and prints every metric by
// name and unit. The last line of standard output is one JSON object
// with the fields correct, attempted, failed and metrics.
//
//	go run . --workload boot-k48 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced
// repetitions; with --trace 1 it also runs traced repetitions (spans
// around every call into a layer, a CPU profile of each measured
// phase) and reports the per-layer metrics. Repetitions continue until
// --seconds have passed; every repetition of one seed must reproduce
// the same digest of the simulated statistics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"portland/internal/obs"
)

// Repetition bounds: two repetitions at least, so the digest check has
// something to compare, and none started once the run could no longer
// end inside the time limit.
const (
	minReps     = 2
	runBudget   = 150 * time.Second
	spansDir    = ".bench_build/spans"
	defaultSeed = 1
)

// result is one repetition's measurements.
type result struct {
	setup  time.Duration
	wall   time.Duration
	steps  []float64 // host ms per 1 ms virtual step
	events int64
	digest string
	out    outcome
	disc   time.Duration
	conv   []time.Duration
	delta  obs.Counters // counters moved in the measured phase
	rt     runtimeStats
	spans  map[string]float64
	// sent and delivered count trace packets (trace-k16 only).
	sent, delivered int64
}

// runtimeStats are Go runtime totals read around the measured phase.
type runtimeStats struct {
	gcCPU   float64
	gcCount uint64
	alloc   uint64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var rs runtimeStats
	if s[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		rs.gcCount = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		rs.alloc = s[2].Value.Uint64()
	}
	return rs
}

// runRep sets up one repetition, measures its phase and checks it.
func runRep(setup setupFunc, seed uint64, t *tracer) (result, error) {
	var res result
	start := time.Now()
	r, err := setup(seed, t)
	if err != nil {
		return res, fmt.Errorf("set-up: %w", err)
	}
	res.setup = time.Since(start)
	f := r.f
	// Start every measured phase from a collected heap, so garbage left
	// by set-up does not decide when the phase's first collection runs.
	runtime.GC()
	base := f.ObsCounters()
	rt0 := readRuntime()
	if err := t.beginMeasure(f); err != nil {
		return res, err
	}
	phase := time.Now()
	if r.begin != nil {
		r.begin()
	}
	for !r.done() {
		s := time.Now()
		n := f.Dom.RunUntil(f.Dom.Now() + time.Millisecond)
		d := time.Since(s)
		res.steps = append(res.steps, float64(d)/float64(time.Millisecond))
		res.events += int64(n)
		t.step(f, s, d, n)
	}
	res.wall = time.Since(phase)
	if err := t.endMeasure(); err != nil {
		return res, err
	}
	rt1 := readRuntime()
	res.rt = runtimeStats{gcCPU: rt1.gcCPU - rt0.gcCPU, gcCount: rt1.gcCount - rt0.gcCount, alloc: rt1.alloc - rt0.alloc}

	final := f.ObsCounters()
	final.Add(r.mgrCarry)
	res.delta = obs.Counters{}
	for k, v := range final {
		res.delta[k] = v - base[k]
	}
	res.out = r.check(final)
	res.disc = r.discovery
	res.conv = r.conv
	res.spans = r.spans
	if r.trace != nil {
		res.sent, res.delivered = r.trace.Sent(), r.trace.Delivered()
	}
	res.digest = digest(final, res.events, append([]time.Duration{r.discovery}, r.conv...))
	return res, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: boot-k48, trace-k16 or churn-k16")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "measure for this many seconds")
	traceFlag := flag.Int("trace", 0, "1 = also run traced repetitions and report per-layer metrics")
	flag.Parse()
	setup, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload boot-k48|trace-k16|churn-k16 --seed N>0 --seconds S>0 --trace 0|1")
		os.Exit(2)
	}
	rep, err := run(*name, setup, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// run repeats the workload until the measuring time has passed and
// folds the repetitions into one report.
func run(name string, setup setupFunc, seed uint64, seconds time.Duration, traced bool) (report, error) {
	fmt.Printf("perfbench %s seed=%d seconds=%v trace=%v go=%s GOMAXPROCS=%d\n",
		name, seed, seconds, traced, runtime.Version(), runtime.GOMAXPROCS(0))
	var plain, withTrace []result
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		var t *tracer
		if traced && i%2 == 1 {
			t = tr
			t.rep, t.phase = len(withTrace), "setup"
		}
		repStart := time.Now()
		res, err := runRep(setup, seed, t)
		if err != nil {
			return report{}, err
		}
		longest = max(longest, time.Since(repStart))
		if t != nil {
			withTrace = append(withTrace, res)
		} else {
			plain = append(plain, res)
		}
		fmt.Printf("rep %d traced=%v: setup %.3f s, wall %.3f s, %d steps, %d events, digest %s\n",
			i, t != nil, res.setup.Seconds(), res.wall.Seconds(), len(res.steps), res.events, res.digest)
		// Drop the repetition's fabric before the next one is built, so
		// the memory high-water mark is one repetition's.
		runtime.GC()
		debug.FreeOSMemory()

		elapsed := time.Since(start)
		enough := len(plain)+len(withTrace) >= minReps && (!traced || len(withTrace) > 0)
		if (enough && elapsed >= seconds) || elapsed+longest > runBudget {
			break
		}
	}
	all := append(append([]result(nil), plain...), withTrace...)
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, res := range all {
		rep.Attempted += res.out.attempted
		rep.Failed += res.out.failed
		for _, p := range res.out.problems {
			rep.Correct = false
			fmt.Println("CHECK FAILED:", p)
		}
		if res.digest != all[0].digest {
			rep.Correct = false
			fmt.Printf("CHECK FAILED: digest %s differs from the first repetition's %s\n", res.digest, all[0].digest)
		}
	}
	if rep.Attempted == 0 {
		return report{}, fmt.Errorf("no operations attempted")
	}
	first := all[0]
	fmt.Printf("digest %s (%d repetitions agree: %v)\n", first.digest, len(all), rep.Correct)
	fmt.Printf("fail_ratio %.6g (%d of %d failed)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	if len(first.conv) > 0 {
		printConvergence(durationsMs(first.conv))
	}
	if traced {
		perLayer(rep.Metrics, plain, withTrace, tr.split)
		path, err := tr.write(spansDir, name, seed)
		if err != nil {
			return report{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	} else {
		setups, err := extraSetups(setup, seed, plain)
		if err != nil {
			return report{}, err
		}
		if err := endToEnd(rep.Metrics, setups, plain, first); err != nil {
			return report{}, err
		}
	}
	printMetrics(rep.Metrics)
	return rep, nil
}

// printConvergence prints the modelled per-fault outages of affected
// probe flows (sorted, in ms) under the percentile rule.
func printConvergence(conv []float64) {
	for _, q := range []float64{0.5, 0.99} {
		name := fmt.Sprintf("convergence_ms_p%g", q*100)
		if v, err := percentile(conv, q); err != nil {
			fmt.Printf("%s unavailable: %v (max %.3f ms)\n", name, err, conv[len(conv)-1])
		} else {
			fmt.Printf("%s %.3f ms (n=%d)\n", name, v, len(conv))
		}
	}
}

// Set-up time is the median of several set-ups. A repetition sets up
// once; when set-up is cheap, further set-ups are run and discarded
// until they add up to setupTotal (at least minSetups, at most
// maxSetups), so the median spans a few seconds of host time.
const (
	minSetups  = 7
	maxSetups  = 40
	setupTotal = 3 * time.Second
	cheapSetup = time.Second
)

func extraSetups(setup setupFunc, seed uint64, plain []result) ([]float64, error) {
	var setups []float64
	for _, r := range plain {
		setups = append(setups, r.setup.Seconds())
	}
	total := 0.0
	for _, s := range setups {
		total += s
	}
	for median(setups) < cheapSetup.Seconds() && len(setups) < maxSetups &&
		(len(setups) < minSetups || total < setupTotal.Seconds()) {
		start := time.Now()
		if _, err := setup(seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start).Seconds()
		setups = append(setups, d)
		total += d
		runtime.GC()
		debug.FreeOSMemory()
	}
	fmt.Printf("setup samples: %d\n", len(setups))
	return setups, nil
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// endToEnd fills the metrics a user of the simulator sees, from the
// untraced repetitions.
//
// Step percentiles are taken per repetition, over its own steps, and
// the median over repetitions is reported: one repetition disturbed by
// the host then moves the tail figure no more than it moves wall_s.
func endToEnd(m map[string]metric, setups []float64, plain []result, first result) error {
	var walls, p50s, p99s []float64
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		steps := append([]float64(nil), r.steps...)
		sort.Float64s(steps)
		p50, err := percentile(steps, 0.5)
		if err != nil {
			return fmt.Errorf("step_ms_p50: %w", err)
		}
		p99, err := percentile(steps, 0.99)
		if err != nil {
			return fmt.Errorf("step_ms_p99: %w", err)
		}
		p50s, p99s = append(p50s, p50), append(p99s, p99)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return fmt.Errorf("getrusage: %w", err)
	}
	fmt.Printf("step_ms_p50 and step_ms_p99: median over %d repetitions of %d step samples each\n", len(plain), len(first.steps))
	m["setup_s"] = metric{median(setups), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["step_ms_p50"] = metric{median(p50s), "ms"}
	m["step_ms_p99"] = metric{median(p99s), "ms"}
	m["peak_mem_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
	m["discovery_ms"] = metric{float64(first.disc) / float64(time.Millisecond), "ms"}
	return nil
}

// perLayer fills the per-layer metrics from the traced repetitions.
// Counters are deterministic, so any traced repetition gives them;
// host times are medians.
func perLayer(m map[string]metric, plain, traced []result, split *cpuSplit) {
	r := traced[0]
	c := r.delta
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	count := func(name string) { m[name] = metric{float64(c[name]), "count"} }
	var tw, pw []float64
	for _, x := range traced {
		tw = append(tw, x.wall.Seconds())
	}
	for _, x := range plain {
		pw = append(pw, x.wall.Seconds())
	}
	m["span.build_s"] = metric{r.spans["span.build_s"], "s"}
	m["span.workload_setup_s"] = metric{r.spans["span.workload_setup_s"], "s"}
	m["span.faults_setup_s"] = metric{r.spans["span.faults_setup_s"], "s"}
	m["sim.events"] = metric{float64(r.events), "count"}
	m["sim.ns_per_event"] = metric{1e9 * median(pw) / float64(r.events), "ns"}
	count("ldp.ldms_sent")
	count("sw.frames_in")
	count("sw.arp_punts")
	count("sw.blackholed")
	count("flow.installs")
	m["flow.hit_ratio"] = metric{ratio(c["flow.hits"], c["flow.hits"]+c["flow.misses"]), "ratio"}
	count("flow.invalidations")
	count("mgr.arp_queries")
	m["mgr.arp_hit_ratio"] = metric{ratio(c["mgr.arp_hits"], c["mgr.arp_queries"]), "ratio"}
	count("mgr.fault_events")
	count("mgr.exclusions_set")
	m["mgr.excl_per_fault"] = metric{ratio(c["mgr.exclusions_set"], c["mgr.fault_events"]), "ratio"}
	count("ctrl.to_mgr_msgs")
	count("ctrl.from_mgr_msgs")
	m["ctrl.from_mgr_bytes"] = metric{float64(c["ctrl.from_mgr_bytes"]), "bytes"}
	m["trace.sent"] = metric{float64(r.sent), "count"}
	m["trace.delivered"] = metric{float64(r.delivered), "count"}
	count("obs.events_captured")
	count("obs.events_dropped")
	count("link.drops_queue")
	count("link.drops_down")
	m["rt.gc_cpu_s"] = metric{r.rt.gcCPU, "s"}
	m["rt.gc_cycles"] = metric{float64(r.rt.gcCount), "count"}
	m["rt.alloc_mb"] = metric{float64(r.rt.alloc) / (1 << 20), "MB"}
	for _, l := range cpuLayers {
		m["cpu."+l] = metric{split.share(l), "share"}
	}
	m["prof.overhead"] = metric{median(tw)/median(pw) - 1, "ratio"}
	m["prof.samples"] = metric{float64(split.total()), "count"}
	conv := durationsMs(r.conv)
	m["conv.samples"] = metric{float64(len(conv)), "count"}
	var p50, maxConv float64
	if len(conv) > 0 {
		p50, maxConv = median(conv), conv[len(conv)-1]
	}
	m["conv.ms_median"] = metric{p50, "ms"}
	m["conv.ms_max"] = metric{maxConv, "ms"}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-24s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Print(b.String())
}
