package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call (the program itself is not instrumented). Times
// are offsets from the recorder's origin.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Req    uint64        `json:"req"`    // spans of one request share it
	Name   string        `json:"name"`   // "<layer>.<operation>"
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(parent int, req uint64, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.origin), End: end.Sub(r.origin)})
	return id
}

// open starts a span that close finishes, so that spans recorded in
// between can name it as their parent.
func (r *recorder) open(parent int, req uint64, name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now.Sub(r.origin), End: now.Sub(r.origin)})
	return id
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now.Sub(r.origin)
}

// time runs f as a span and returns its duration.
func (r *recorder) time(parent int, req uint64, name string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	r.add(parent, req, name, start, end)
	return end.Sub(start)
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once; a child
// sticking out of its parent counts only inside it).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to [lo, hi].
func covered(lo, hi time.Duration, children []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, lo), min(c.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerSelf sums self time per layer, in milliseconds.
func layerSelf(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.layer()] += float64(self[s.ID]) / float64(time.Millisecond)
	}
	return out
}

// byName groups span durations by span name.
func byName(spans []span) map[string]*dist {
	out := map[string]*dist{}
	for _, s := range spans {
		d := out[s.Name]
		if d == nil {
			d = &dist{}
			out[s.Name] = d
		}
		d.add(s.End - s.Start)
	}
	return out
}

// writeSpans writes one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
