package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"portland/internal/core"
)

// span is one timed call from the benchmark into a layer of the
// program. Steps are spans too: one per Domain.RunUntil call, carrying
// the events it executed and the counters it moved.
type span struct {
	Rep     int              `json:"rep"`
	Name    string           `json:"name"`
	Parent  string           `json:"parent,omitempty"`
	StartNs int64            `json:"start_ns"`
	DurNs   int64            `json:"dur_ns"`
	Events  int              `json:"events,omitempty"`
	Deltas  map[string]int64 `json:"deltas,omitempty"`
}

// tracer keeps spans in memory and CPU-profiles measured phases. A nil
// tracer records nothing, so untraced repetitions call the same code.
type tracer struct {
	epoch time.Time
	rep   int
	phase string // "setup" or "measure": the parent of the next span
	spans []span
	last  map[string]int64 // counters at the previous step
	prof  bytes.Buffer
	split *cpuSplit
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), split: newCPUSplit()}
}

// call times fn as a span named after the layer entry point it calls.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	if t != nil {
		t.spans = append(t.spans, span{Rep: t.rep, Name: name, Parent: t.phase,
			StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: d.Nanoseconds()})
	}
	return d
}

// beginMeasure starts the CPU profile of a measured phase and takes
// the counter baseline for per-step deltas.
func (t *tracer) beginMeasure(f *core.Fabric) error {
	if t == nil {
		return nil
	}
	t.phase = "measure"
	t.last = f.ObsCounters()
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// step records one RunUntil step with its event count and the
// counters that moved during it.
func (t *tracer) step(f *core.Fabric, start time.Time, d time.Duration, events int) {
	if t == nil {
		return
	}
	now := f.ObsCounters()
	deltas := make(map[string]int64)
	for k, v := range now {
		if dv := v - t.last[k]; dv != 0 {
			deltas[k] = dv
		}
	}
	t.last = now
	t.spans = append(t.spans, span{Rep: t.rep, Name: "Domain.RunUntil", Parent: "measure",
		StartNs: start.Sub(t.epoch).Nanoseconds(), DurNs: d.Nanoseconds(), Events: events, Deltas: deltas})
}

// endMeasure stops the profile and charges its samples to layers.
func (t *tracer) endMeasure() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return t.split.addProfile(t.prof.Bytes())
}

// write saves every span as JSON under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
