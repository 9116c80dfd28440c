package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"portland/internal/topo"
)

func tracePlacement(t *testing.T, k int) Placement {
	t.Helper()
	spec, err := topo.FatTree(k)
	if err != nil {
		t.Fatal(err)
	}
	return NewPlacement(spec)
}

func testCfg(seed uint64, flows int) TraceConfig {
	return TraceConfig{
		Seed:  seed,
		Flows: flows,
		Arrivals: Arrivals{
			Window: 2 * time.Second,
			Bursts: 64,
			Spread: 5 * time.Millisecond,
		},
		Size:         Pareto{Alpha: 1.2, Min: 1, Max: 32},
		Locality:     LocalityMix{IntraRack: 0.5, IntraPod: 0.3},
		PacketGap:    100 * time.Microsecond,
		PayloadBytes: 64,
		BasePort:     30000,
		DstPorts:     8,
	}
}

func digestSpec(h func([]byte), sp FlowSpec) {
	var buf [8 * 6]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(sp.Src))
	binary.LittleEndian.PutUint64(buf[8:], uint64(sp.Dst))
	binary.LittleEndian.PutUint64(buf[16:], uint64(sp.Start))
	binary.LittleEndian.PutUint64(buf[24:], uint64(sp.Packets))
	binary.LittleEndian.PutUint64(buf[32:], uint64(sp.SrcPort))
	binary.LittleEndian.PutUint64(buf[40:], uint64(sp.DstPort))
	h(buf[:])
}

// The samplers are pure in (seed, index): evaluating flows in shuffled
// order, or concurrently from many goroutines, must produce the exact
// specs in-order evaluation produces. This is the property that makes
// a trace identical across serial and parallel runs.
func TestSamplersPureInSeedAndIndex(t *testing.T) {
	pl := tracePlacement(t, 8)
	cfg := testCfg(7, 4096)
	want := make([]FlowSpec, cfg.Flows)
	for i := range want {
		want[i] = cfg.Flow(pl, i)
	}

	// Shuffled order.
	order := rand.New(rand.NewPCG(1, 2)).Perm(cfg.Flows)
	for _, i := range order {
		if got := cfg.Flow(pl, i); got != want[i] {
			t.Fatalf("shuffled eval: flow %d = %+v, want %+v", i, got, want[i])
		}
	}

	// Concurrent evaluation.
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < cfg.Flows; i += 8 {
				if got := cfg.Flow(pl, i); got != want[i] {
					errs <- "mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal("parallel eval: ", msg)
	}
}

// Pinned digest over the first 4096 flows of a fixed (seed, topology):
// any change to a sampler formula, hash constant, or field layout
// shows up here, the same way the experiment goldens pin sweep output.
func TestSamplerGoldenDigest(t *testing.T) {
	pl := tracePlacement(t, 8)
	cfg := testCfg(7, 4096)
	h := fnv.New64a()
	for i := 0; i < cfg.Flows; i++ {
		digestSpec(func(b []byte) { h.Write(b) }, cfg.Flow(pl, i))
	}
	const want = 0x7db6253ed324582a
	if got := h.Sum64(); got != want {
		t.Fatalf("sampler digest %#x, want %#x (intentional change? update the constant)", got, want)
	}
}

// Size samplers respect their bounds and actually produce a heavy
// tail / spread rather than a constant.
func TestSizeSamplerBounds(t *testing.T) {
	p := Pareto{Alpha: 1.2, Min: 1, Max: 64}
	l := LogNormal{Mu: 1.5, Sigma: 1.0, Max: 256}
	seenBig, seenSmall := false, false
	for i := uint64(0); i < 20000; i++ {
		n := p.Packets(7, i)
		if n < p.Min || n > p.Max {
			t.Fatalf("pareto draw %d out of [%d,%d]", n, p.Min, p.Max)
		}
		if n == p.Min {
			seenSmall = true
		}
		if n > p.Max/2 {
			seenBig = true
		}
		m := l.Packets(7, i)
		if m < 1 || m > l.Max {
			t.Fatalf("lognormal draw %d out of [1,%d]", m, l.Max)
		}
	}
	if !seenSmall || !seenBig {
		t.Fatalf("pareto not heavy-tailed: small=%v big=%v", seenSmall, seenBig)
	}
}

// The locality classes land where asked: with a fixed seed the class
// split is deterministic, so exact counts can be asserted against a
// tolerance band around the configured fractions.
func TestLocalityMixFractions(t *testing.T) {
	pl := tracePlacement(t, 8)
	mix := LocalityMix{IntraRack: 0.5, IntraPod: 0.3}
	const flows = 20000
	var rack, pod, inter int
	for i := uint64(0); i < flows; i++ {
		src, dst := mix.Pair(pl, 7, i)
		if src == dst {
			t.Fatalf("flow %d: src == dst == %d", i, src)
		}
		switch {
		case pl.RackOf[src] == pl.RackOf[dst]:
			rack++
		case pl.PodOf[src] == pl.PodOf[dst]:
			pod++
		default:
			inter++
		}
	}
	frac := func(n int) float64 { return float64(n) / flows }
	if f := frac(rack); f < 0.47 || f > 0.53 {
		t.Errorf("intra-rack fraction %.3f, want ~0.5", f)
	}
	if f := frac(pod); f < 0.27 || f > 0.33 {
		t.Errorf("intra-pod fraction %.3f, want ~0.3", f)
	}
	if f := frac(inter); f < 0.17 || f > 0.23 {
		t.Errorf("inter-pod fraction %.3f, want ~0.2", f)
	}
}

// Arrival starts are non-negative, land inside the window plus the
// exponential tail, and cluster: with 64 bursts over 2s, many flows
// must share the same burst center.
func TestArrivalsBurstStructure(t *testing.T) {
	a := Arrivals{Window: 2 * time.Second, Bursts: 64, Spread: 5 * time.Millisecond}
	centers := map[time.Duration]int{}
	for i := uint64(0); i < 10000; i++ {
		at := a.Start(7, i)
		if at < 0 {
			t.Fatalf("negative start %v", at)
		}
		if at > a.Window+200*time.Millisecond {
			t.Fatalf("start %v far outside window", at)
		}
		// Recover the center: flows i and i+64 share burst i%64.
		if i < 64 {
			centers[a.Start(7, i)-0] = 1
		}
	}
	if len(centers) < 32 {
		t.Fatalf("only %d distinct early starts, bursts look collapsed", len(centers))
	}
}
