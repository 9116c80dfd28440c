package core

import (
	"testing"
	"time"
)

// BenchmarkK48Discovery measures the wall-clock cost of booting the
// paper's full target scale — a k=48 fat tree (2880 switches, 27,648
// hosts) — from cold start through verified location discovery. This
// is the headline number for scheduler throughput: discovery is pure
// control-plane churn (LDM fan-out on every port of every switch)
// and stresses the timer wheel far harder than steady state.
func BenchmarkK48Discovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := NewFatTree(48, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		f.Start()
		if err := f.AwaitDiscovery(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := f.CheckDiscovery(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkK16SteadyState boots a k=16 fabric (320 switches, 1024
// hosts) once, then times advancing the converged fabric by 1ms of
// virtual time per op — LDM announcements, liveness sweeps and
// fabric-manager keepalives with no external traffic. This is the
// scheduler's sustained-rate number, free of boot-phase effects.
func BenchmarkK16SteadyState(b *testing.B) {
	f, err := NewFatTree(16, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	f.Start()
	if err := f.AwaitDiscovery(5 * time.Second); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.RunFor(time.Millisecond)
	}
}
