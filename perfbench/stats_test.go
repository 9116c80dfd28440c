package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
		{2000, 0.99, 1980, true},
	}
	for _, c := range cases {
		got, err := percentile(ramp(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g) err=%v, want ok=%v", c.n, c.q, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("percentile(n=%d, q=%g)=%g, want %g", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median=%g, want 2", got)
	}
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("even median=%g, want 2.5", got)
	}
	if in[0] != 4 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestDigestStable(t *testing.T) {
	a := map[string]int64{"sw.frames_in": 7, "mgr.fault_events": 3, "flow.hits": 11}
	b := map[string]int64{"flow.hits": 11, "sw.frames_in": 7, "mgr.fault_events": 3}
	times := []time.Duration{3 * time.Millisecond, 5 * time.Millisecond}
	da, db := digest(a, 42, times), digest(b, 42, times)
	if da != db {
		t.Fatalf("digest depends on map order: %s vs %s", da, db)
	}
	for i := 0; i < 20; i++ {
		if d := digest(a, 42, times); d != da {
			t.Fatalf("digest not repeatable: %s vs %s", d, da)
		}
	}
	b["flow.hits"]++
	if digest(b, 42, times) == da {
		t.Error("digest ignores a counter change")
	}
	if digest(a, 43, times) == da {
		t.Error("digest ignores the event count")
	}
	if digest(a, 42, times[:1]) == da {
		t.Error("digest ignores the modelled times")
	}
}
