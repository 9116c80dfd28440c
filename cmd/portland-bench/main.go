// Command portland-bench regenerates every table and figure of the
// PortLand paper's evaluation, printing the same rows and series the
// paper reports (see EXPERIMENTS.md for the mapping and the expected
// shapes).
//
// Usage:
//
//	portland-bench                 # run everything
//	portland-bench -exp f9,f13     # run a subset
//	portland-bench -list           # list experiment IDs
//	portland-bench -quick          # reduced trial counts (CI-sized)
//	portland-bench -parallel 4     # worker-pool size (0 = GOMAXPROCS)
//	portland-bench -serial         # force one worker (escape hatch)
//	portland-bench -cpuprofile cpu.prof -memprofile mem.prof
//	portland-bench -reports out/   # also write <id>-report.json per experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"portland/internal/experiments"
	"portland/internal/obs"
	"portland/internal/runner"
)

type experiment struct {
	id   string
	desc string
	// run executes the experiment, prints its table/series, and
	// returns the observability report (nil for drivers without one).
	run func(quick bool) (*obs.Report, error)
}

func main() {
	// All work happens in run so deferred profile flushes survive the
	// error paths (os.Exit here would skip them).
	os.Exit(run())
}

func run() int {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment IDs (t1,f9,f10,f11,f12,f13,f14,fmf,sc,mgr,ft,a1..a6) or 'all'")
		list       = flag.Bool("list", false, "list experiments and exit")
		quick      = flag.Bool("quick", false, "reduced trial counts")
		parallel   = flag.Int("parallel", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
		serial     = flag.Bool("serial", false, "run sweeps on one worker (same output, for bisecting)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		reports    = flag.String("reports", "", "directory for per-experiment <id>-report.json files")
	)
	flag.Parse()

	if *serial {
		runner.SetWorkers(1)
	} else {
		runner.SetWorkers(*parallel)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	exps := []experiment{
		{"t1", "Table 1: technique comparison + forwarding-state proxy", runT1},
		{"f9", "Figure 9: UDP convergence vs number of link failures", runF9},
		{"f9s", "Figure 9 variant: whole-switch (agg/core) crashes", runF9S},
		{"f10", "Figure 10: TCP convergence across a failure", runF10},
		{"f11", "Figure 11: multicast convergence under failure", runF11},
		{"f12", "Figure 12: TCP across VM live migration", runF12},
		{"f13", "Figure 13: fabric-manager control traffic", runF13},
		{"f14", "Figure 14: fabric-manager CPU requirement", runF14},
		{"fmf", "Manager failover: ARP blackout + convergence vs outage/control loss", runFMF},
		{"sc", "Scenario engine: time-to-detect/reroute per fault family", runSC},
		{"mgr", "Manager scaling: prefix-sharded registry + batched ARP punts", runMgr},
		{"ft", "Table pressure: hardware envelopes vs fabric scale", runFT},
		{"a1", "Ablation A1: ECMP vs spanning-tree cross-section goodput", runA1},
		{"a2", "Ablation A2: LDP discovery time vs k", runA2},
		{"a3", "Ablation A3: proxy ARP vs broadcast ARP cost", runA3},
		{"a4", "Ablation A4: LDM interval sweep", runA4},
		{"a5", "Ablation A5: ECMP flow-hash balance across cores", runA5},
		{"a6", "Ablation A6: round-trip time by locality class", runA6},
	}

	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.desc)
		}
		return 0
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	if *reports != "" {
		if err := os.MkdirAll(*reports, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	start := time.Now()
	for _, e := range exps {
		if *expFlag != "all" && !want[e.id] {
			continue
		}
		rep, err := e.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			return 1
		}
		if *reports != "" && rep != nil {
			if err := writeReport(*reports, e.id, rep); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
				return 1
			}
		}
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}

func runT1(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultTable1()
	if quick {
		cfg.Ks = []int{4, 8}
	}
	res, err := experiments.RunTable1(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runF9(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultFig9()
	if quick {
		cfg.MaxFaults = 6
		cfg.Trials = 3
	}
	res, err := experiments.RunFig9(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runF9S(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultFig9()
	cfg.Mode = experiments.FailSwitches
	cfg.MaxFaults = 6
	cfg.Trials = 5
	if quick {
		cfg.MaxFaults = 3
		cfg.Trials = 2
	}
	res, err := experiments.RunFig9(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runF10(bool) (*obs.Report, error) {
	res, err := experiments.RunFig10(experiments.DefaultFig10())
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runF11(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultFig11()
	if quick {
		cfg.Trials = 4
	}
	res, err := experiments.RunFig11(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runF12(bool) (*obs.Report, error) {
	res, err := experiments.RunFig12(experiments.DefaultFig12())
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	// No report: this driver predates the observability layer's
	// journal capture (micro/analytic benchmark, no fabric journals).
	return nil, nil
}

func runF13(bool) (*obs.Report, error) {
	res, err := experiments.RunFig13(experiments.DefaultFig13())
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	// No report: this driver predates the observability layer's
	// journal capture (micro/analytic benchmark, no fabric journals).
	return nil, nil
}

func runF14(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultFig14()
	if quick {
		cfg.Registry = 8192
		cfg.MeasureOps = 100000
	}
	res, err := experiments.RunFig14(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	// No report: this driver predates the observability layer's
	// journal capture (micro/analytic benchmark, no fabric journals).
	return nil, nil
}

func runFMF(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultFMF()
	if quick {
		cfg.Outages = []time.Duration{100 * time.Millisecond, 400 * time.Millisecond}
	}
	res, err := experiments.RunFMF(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runSC(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultSC()
	if quick {
		cfg.Trials = 1
	}
	res, err := experiments.RunSC(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runMgr(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultMgr()
	if quick {
		cfg.Trials = 1
		cfg.Flows = 300
	}
	res, err := experiments.RunMgr(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runFT(quick bool) (*obs.Report, error) {
	cfg := experiments.DefaultFT()
	if quick {
		cfg.Ks = []int{4, 6}
		cfg.Flows = 200
	}
	res, err := experiments.RunFT(cfg)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runA1(bool) (*obs.Report, error) {
	res, err := experiments.RunA1(experiments.DefaultA1())
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runA2(quick bool) (*obs.Report, error) {
	// The full sweep ends at the paper's deployment target: a k=48
	// fat tree with 2880 switches and 27,648 hosts.
	ks := []int{4, 8, 16, 32, 48}
	if quick {
		ks = []int{4, 8, 16}
	}
	res, err := experiments.RunA2(ks)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runA3(bool) (*obs.Report, error) {
	res, err := experiments.RunA3(4, 8)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runA5(quick bool) (*obs.Report, error) {
	flows := 256
	if quick {
		flows = 64
	}
	res, err := experiments.RunA5(4, flows)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runA6(quick bool) (*obs.Report, error) {
	probes := 50
	if quick {
		probes = 20
	}
	res, err := experiments.RunA6(4, probes)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

func runA4(quick bool) (*obs.Report, error) {
	ivs := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond}
	trials := 5
	if quick {
		trials = 2
	}
	res, err := experiments.RunA4(ivs, trials)
	if err != nil {
		return nil, err
	}
	res.Print(os.Stdout)
	return res.Report, nil
}

// writeReport writes one experiment's versioned JSON report into dir.
func writeReport(dir, id string, rep *obs.Report) error {
	f, err := os.Create(filepath.Join(dir, id+"-report.json"))
	if err != nil {
		return err
	}
	if err := rep.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
