package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"portland/internal/topo"
)

func TestLayerOfChargesInnermostPortlandFrame(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		// Map iteration inside the manager is the manager's cost.
		{[]string{"runtime.mapiternext", "portland/internal/fabricmgr.(*Manager).linksOf",
			"portland/internal/fabricmgr.(*Manager).recomputeRoutes", "portland/internal/sim.(*Engine).runSpan", "main.runRep"}, "fabricmgr"},
		// Allocation is charged to the layer that asked for it.
		{[]string{"runtime.mallocgc", "runtime.newobject", "portland/internal/flowtable.(*Table).Install",
			"portland/internal/pswitch.(*Switch).forward"}, "flowtable"},
		{[]string{"portland/internal/ether.(*FramePool).Get", "portland/internal/pswitch.(*Switch).send"}, "wire"},
		{[]string{"portland/internal/ctrlnet.(*SimConn).Send"}, "ctrl"},
		{[]string{"portland/internal/tcplite.(*Conn).recv"}, "host"},
		{[]string{"portland/internal/faults.Schedule.Apply.func1"}, "obs"},
		{[]string{"portland/internal/graydetect.(*Detector).tick"}, "other"},
		// No portland frame: GC workers, the scheduler, the benchmark loop.
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.nanotime", "main.runRep", "main.main"}, "runtime"},
		{nil, "runtime"},
		// Tracing overhead is kept out of the split altogether, but work
		// a traced call wraps is not.
		{[]string{"runtime.mapassign", "portland/internal/core.(*Fabric).ObsCounters", "main.(*tracer).step"}, ""},
		{[]string{"portland/internal/ldp.(*Agent).Start", "portland/internal/core.(*Fabric).Start", "main.(*tracer).call"}, "ldp"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

func TestEveryMappedLayerIsReported(t *testing.T) {
	reported := make(map[string]bool)
	for _, l := range cpuLayers {
		reported[l] = true
	}
	for pkg, l := range layerOfPkg {
		if !reported[l] {
			t.Errorf("package %s feeds layer %q, which cpuLayers does not report", pkg, l)
		}
	}
}

// TestDecodeRealProfile profiles work inside a portland package and
// checks the decoder recovers stacks that the split charges to it.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	// One second at the default 100 Hz gives about a hundred samples.
	for start := time.Now(); time.Since(start) < time.Second; {
		if _, err := topo.FatTree(16); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	stacks, counts, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != len(counts) || len(stacks) == 0 {
		t.Fatalf("decoded %d stacks and %d counts", len(stacks), len(counts))
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			if strings.HasPrefix(fn, "portland/internal/topo.") {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no decoded stack holds a portland/internal/topo frame")
	}
	split := newCPUSplit()
	if err := split.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if split.share("core") == 0 {
		t.Errorf("no samples charged to core (topo): %v", split.samples)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted bytes that are not gzip")
	}
}
