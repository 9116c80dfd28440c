package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie above it, so a tail figure never rests
// on a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples. It fails when fewer than minBeyond samples lie beyond it:
// p99 needs 1000 samples, p50 needs 20.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, n-rank, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of samples (the mean of the two
// middle values for an even count); samples is not modified.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// digest fingerprints a repetition's deterministic outputs: every
// counter, the measured-phase event count and the modelled virtual
// times. Two runs of one seed must agree on it, and a change that only
// makes the simulator faster must leave it unchanged.
func digest(counters map[string]int64, events int64, modelled []time.Duration) string {
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, counters[k])
	}
	fmt.Fprintf(h, "sim.events=%d\n", events)
	for _, d := range modelled {
		fmt.Fprintf(h, "t=%d\n", int64(d))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
