// Package experiments reproduces every table and figure of PortLand's
// evaluation (SIGCOMM 2009, §5) plus the ablations DESIGN.md calls
// out. Each experiment is a pure function from a config to a result
// struct with a Print method emitting the same rows/series the paper
// reports; bench_test.go and cmd/portland-bench are thin wrappers.
//
// The default rig mirrors the paper's testbed: a k=4 fat tree (20
// switches, 16 hosts), 1 GbE links, 10 ms LDMs. Absolute numbers
// differ from the authors' NetFPGA hardware; the documented claim is
// the *shape* (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"time"

	"portland/internal/core"
	"portland/internal/topo"
)

// Rig configures the simulated testbed common to the experiments: the
// fat-tree degree plus the fabric build options. Zero option values
// take core's defaults, and the zero value of every optional model
// (CtrlLoss, Detect, MgrShards, PuntBatch, Speeds, Hardware) leaves
// pre-existing experiments bit-identical.
type Rig struct {
	K int
	core.Options
}

// DefaultRig mirrors the paper's testbed scale.
func DefaultRig() Rig {
	return Rig{K: 4, Options: core.Options{Seed: 1}}
}

func (r Rig) build() (*core.Fabric, error) {
	f, err := core.NewFatTree(r.K, r.Options)
	if err != nil {
		return nil, err
	}
	f.Start()
	if err := f.AwaitDiscovery(5 * time.Second); err != nil {
		return nil, err
	}
	if err := f.CheckDiscovery(); err != nil {
		return nil, fmt.Errorf("discovery ground-truth check: %w", err)
	}
	return f, nil
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

func hr(w io.Writer) {
	fmt.Fprintln(w, "--------------------------------------------------------------")
}

// busiestLink advances the simulation by window and returns the
// blueprint link between levels la and lb that delivered the most
// frames during it — the experiments use it to find the link a flow
// (or a multicast tree) is actually riding before failing it.
func busiestLink(f *core.Fabric, window time.Duration, la, lb topo.Level) (int, error) {
	base := make([]int64, len(f.Links))
	for i, l := range f.Links {
		base[i] = l.Delivered()
	}
	f.RunFor(window)
	best, bestDelta := -1, int64(0)
	for i, ls := range f.Spec.Links {
		al, bl := f.Spec.Nodes[ls.A.Node].Level, f.Spec.Nodes[ls.B.Node].Level
		if !(al == la && bl == lb || al == lb && bl == la) {
			continue
		}
		if d := f.Links[i].Delivered() - base[i]; d > bestDelta {
			bestDelta, best = d, i
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("no %v-%v link carried traffic in %v", la, lb, window)
	}
	return best, nil
}
