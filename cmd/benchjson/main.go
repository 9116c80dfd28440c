// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document suitable for checking into the repo as a
// dated performance baseline:
//
//	go test -bench . -benchmem ./... | benchjson -o BENCH_2026-08-05.json
//
// Each benchmark line has the form
//
//	BenchmarkName-8   1000000   83.55 ns/op   0 B/op   0 allocs/op
//
// i.e. a name, an iteration count, then value/unit pairs. Lines that
// do not start with "Benchmark" are ignored, so the full `go test`
// output can be piped in unfiltered.
//
// Two further modes support the perf workflow:
//
//	benchjson -diff old.json new.json
//
// prints a per-benchmark comparison of ns/op and allocs/op between two
// baselines (matching names with the -GOMAXPROCS suffix stripped),
// with a shards column for benchmarks that report a registry-shard
// count, a flows column for workload benchmarks that report their
// per-iteration sampled-flow count, and an occ column for bounded-table
// benchmarks that report their occupancy, and
//
//	go test -bench ... -benchmem | benchjson -assert-zero-allocs 'regexp'
//
// exits nonzero when any benchmark whose name matches the regexp
// reports allocs/op > 0 — the data-path allocation gate `make
// bench-alloc` runs in CI. Finally,
//
//	go test -bench ... -benchmem | benchjson -gate baseline.json
//
// compares fresh benchmark output against a committed baseline and
// exits nonzero when any shared benchmark regressed: ns/op beyond the
// -gate-tolerance band (wall time is noisy, so the band is generous),
// or allocs/op above the baseline at all (allocation counts are
// deterministic, so any increase is a real regression). `make
// bench-gate` wires this into `make check`.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the effective parallelism bound of the run that
	// produced the baseline; NumCPU is the host's core count. Recorded
	// so multi-shard numbers (see the per-benchmark `shards` and
	// `workers` metrics) can be read honestly: a sharded benchmark on
	// a single-core host measures partition overhead, not speedup.
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	diff := flag.Bool("diff", false, "compare two baselines: benchjson -diff old.json new.json")
	assertZero := flag.String("assert-zero-allocs", "",
		"regexp of benchmark names that must report 0 allocs/op; exit 1 on violation")
	gate := flag.String("gate", "",
		"baseline JSON to gate stdin's bench output against; exit 1 on regression")
	gateTol := flag.Float64("gate-tolerance", 0.30,
		"fractional ns/op increase tolerated by -gate before failing")
	gateAllocTol := flag.Float64("gate-alloc-tolerance", 0,
		"fractional allocs/op increase tolerated by -gate (default 0: any increase fails; boot-scale benchmarks jitter by a few ppm)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff old.json new.json")
			os.Exit(2)
		}
		oldRep, err := loadReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		newRep, err := loadReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, line := range diffLines(oldRep, newRep) {
			fmt.Println(line)
		}
		return
	}

	rep := report{
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		b, ok := parseLine(sc.Text())
		if ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *gate != "" {
		base, err := loadReport(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		compared, bad := gateViolations(base.Benchmarks, rep.Benchmarks, *gateTol, *gateAllocTol)
		if compared == 0 {
			fmt.Fprintf(os.Stderr, "gate: no benchmark in common with %s (gate misconfigured?)\n", *gate)
			os.Exit(1)
		}
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, "gate: "+v)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
		fmt.Printf("gate: %d benchmarks within %.0f%% of %s, no alloc regressions\n",
			compared, *gateTol*100, *gate)
		return
	}

	if *assertZero != "" {
		re, err := regexp.Compile(*assertZero)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		matched, bad := zeroAllocViolations(rep.Benchmarks, re)
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "assert-zero-allocs: no benchmark matched %q (gate misconfigured?)\n", *assertZero)
			os.Exit(1)
		}
		for _, v := range bad {
			fmt.Fprintln(os.Stderr, "assert-zero-allocs: "+v)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
		fmt.Printf("assert-zero-allocs: %d benchmarks matched %q, all 0 allocs/op\n", matched, *assertZero)
		return
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func loadReport(path string) (report, error) {
	var rep report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("parsing %s: %w", path, err)
	}
	return rep, nil
}

// normName strips the trailing -GOMAXPROCS suffix so baselines taken
// on machines with different core counts still line up.
func normName(s string) string {
	if i := strings.LastIndexByte(s, '-'); i > 0 {
		if _, err := strconv.Atoi(s[i+1:]); err == nil {
			return s[:i]
		}
	}
	return s
}

// zeroAllocViolations reports how many benchmarks matched re and which
// of them broke the 0 allocs/op contract.
func zeroAllocViolations(benches []benchmark, re *regexp.Regexp) (matched int, bad []string) {
	for _, b := range benches {
		if !re.MatchString(normName(b.Name)) {
			continue
		}
		matched++
		if a := b.Metrics["allocs/op"]; a > 0 {
			bad = append(bad, fmt.Sprintf("%s reports %g allocs/op, want 0", b.Name, a))
		}
	}
	return matched, bad
}

// gateViolations compares fresh results against a baseline by
// normalized name. A benchmark regresses when its ns/op exceeds the
// baseline by more than tol (fractional), or when its allocs/op
// exceeds the baseline by more than allocTol (zero for the
// microbenchmark gate, where allocation counts are exactly
// deterministic; a few percent for boot-scale runs, whose counts
// jitter with map growth and stack resizing). Benchmarks present on only one side are
// ignored — adding or retiring a benchmark must not trip the gate —
// but compared reports how many lined up so a baseline that matches
// nothing fails loudly instead of vacuously passing.
func gateViolations(base, fresh []benchmark, tol, allocTol float64) (compared int, bad []string) {
	baseBy := make(map[string]benchmark, len(base))
	for _, b := range base {
		baseBy[normName(b.Name)] = b
	}
	for _, nb := range fresh {
		ob, ok := baseBy[normName(nb.Name)]
		if !ok {
			continue
		}
		compared++
		oldNs, newNs := ob.Metrics["ns/op"], nb.Metrics["ns/op"]
		if oldNs > 0 && newNs > oldNs*(1+tol) {
			bad = append(bad, fmt.Sprintf("%s ns/op %.1f exceeds baseline %.1f by %+.1f%% (tolerance %.0f%%)",
				normName(nb.Name), newNs, oldNs, (newNs-oldNs)/oldNs*100, tol*100))
		}
		if oldA, newA := ob.Metrics["allocs/op"], nb.Metrics["allocs/op"]; newA > oldA*(1+allocTol) {
			bad = append(bad, fmt.Sprintf("%s allocs/op rose %g -> %g (tolerance %.1f%%)",
				normName(nb.Name), oldA, newA, allocTol*100))
		}
	}
	return compared, bad
}

// diffLines renders a per-benchmark ns/op and allocs/op comparison.
// Benchmarks are matched by normalized name; rows follow the new
// report's order, then the old report's leftovers.
func diffLines(oldRep, newRep report) []string {
	oldBy := make(map[string]benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[normName(b.Name)] = b
	}
	seen := make(map[string]bool)
	out := []string{fmt.Sprintf("%-52s %6s %7s %5s %12s %12s %8s  %10s %10s",
		"benchmark", "shards", "flows", "occ", "old ns/op", "new ns/op", "delta", "old allocs", "new allocs")}
	for _, nb := range newRep.Benchmarks {
		name := normName(nb.Name)
		seen[name] = true
		ob, ok := oldBy[name]
		if !ok {
			out = append(out, fmt.Sprintf("%-52s %6s %7s %5s %12s %12.1f %8s  %10s %10g",
				name, metricCol(nb, "shards"), metricCol(nb, "flows"), metricCol(nb, "occupancy"), "-", nb.Metrics["ns/op"], "added", "-", nb.Metrics["allocs/op"]))
			continue
		}
		oldNs, newNs := ob.Metrics["ns/op"], nb.Metrics["ns/op"]
		delta := "n/a"
		if oldNs > 0 {
			delta = fmt.Sprintf("%+.1f%%", (newNs-oldNs)/oldNs*100)
		}
		out = append(out, fmt.Sprintf("%-52s %6s %7s %5s %12.1f %12.1f %8s  %10g %10g",
			name, metricCol(nb, "shards"), metricCol(nb, "flows"), metricCol(nb, "occupancy"), oldNs, newNs, delta, ob.Metrics["allocs/op"], nb.Metrics["allocs/op"]))
	}
	for _, ob := range oldRep.Benchmarks {
		name := normName(ob.Name)
		if !seen[name] {
			out = append(out, fmt.Sprintf("%-52s %6s %7s %5s %12.1f %12s %8s  %10g %10s",
				name, metricCol(ob, "shards"), metricCol(ob, "flows"), metricCol(ob, "occupancy"), ob.Metrics["ns/op"], "-", "removed", ob.Metrics["allocs/op"], "-"))
		}
	}
	return out
}

// metricCol renders one of the benchmark's self-reported dimension
// metrics (the registry `shards` count, the workload `flows` count,
// the bounded flow-table `occupancy` fraction), "-" for benchmarks
// that do not report it.
func metricCol(b benchmark, key string) string {
	v, ok := b.Metrics[key]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// parseLine extracts one benchmark result; ok is false for any line
// that is not a well-formed benchmark row.
func parseLine(line string) (benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return benchmark{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false
	}
	b := benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}
