package main

import (
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 over 300 samples rests on three values, which is
// noise, so the tail falls back to the highest percentile the sample
// supports.
const minBeyond = 10

// tailLadder lists the percentiles a tail is chosen from, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100-1e-9)) - 1 // the epsilon absorbs float error in p*n/100
	if r < 0 {
		r = 0
	}
	if r > n-1 {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly above the nearest rank of p.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// supportedTail returns the highest percentile at or below want that has
// at least minBeyond samples beyond it, or ok=false when not even the
// median has.
func supportedTail(n int, want float64) (p float64, ok bool) {
	for _, p := range tailLadder {
		if p <= want && n > 0 && beyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)]
}

// dist is a timing distribution in milliseconds.
type dist struct{ ms []float64 }

func (d *dist) add(t time.Duration) { d.ms = append(d.ms, float64(t)/float64(time.Millisecond)) }

func (d *dist) addMS(v float64) { d.ms = append(d.ms, v) }

func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	return s
}

// summary is one reported timing: its median, the tail percentile the
// sample supports (up to the one asked for), and the sample count.
type summary struct {
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct float64 `json:"tail_pct"`
	N       int     `json:"n"`
}

func (d *dist) summarize(want float64) summary {
	if len(d.ms) == 0 {
		return summary{}
	}
	s := d.sorted()
	out := summary{P50: percentile(s, 50), N: len(s)}
	if p, ok := supportedTail(len(s), want); ok {
		out.Tail, out.TailPct = percentile(s, p), p
	}
	return out
}

// at returns percentile p exactly, however few samples lie beyond it;
// the run's sample counts are sized so the contract percentiles are
// supported (see README.md).
func (d *dist) at(p float64) float64 { return percentile(d.sorted(), p) }

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a metric or workload name is made of at most
// 64 letters, digits, '_', '.' and '-', starting with a letter or digit.
func validName(s string) bool { return metricName.MatchString(s) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}
