package main

import (
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{n: 1000, want: 99, p: 99, ok: true},  // 10 beyond rank 990
		{n: 999, want: 99, p: 95, ok: true},   // p99 leaves 9 beyond
		{n: 300, want: 99, p: 95, ok: true},   // 15 beyond p95
		{n: 199, want: 95, p: 90, ok: true},   // p95 leaves 9 beyond
		{n: 200, want: 95, p: 95, ok: true},   // exactly 10 beyond
		{n: 10000, want: 95, p: 95, ok: true}, // never above the ask
		{n: 10000, want: 100, p: 99.9, ok: true},
		{n: 20, want: 99, p: 50, ok: true},
		{n: 19, want: 99, ok: false},
		{n: 0, want: 99, ok: false},
	}
	for _, c := range cases {
		p, ok := supportedTail(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("supportedTail(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d p=%v leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	var d dist
	for i := 0; i < 400; i++ {
		d.addMS(float64(400 - i))
	}
	sm := d.summarize(99)
	if sm.N != 400 || sm.P50 != 200 || sm.TailPct != 95 || sm.Tail != 380 {
		t.Errorf("summarize = %+v", sm)
	}
}

// fakeClock advances only when the generator sleeps or an operation
// "takes" time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimeAccounting(t *testing.T) {
	c := &fakeClock{now: time.Unix(0, 0)}
	start := c.now
	// 10 requests/s for one second; request 2 stalls for 350ms, the rest
	// take 20ms.
	timings := openLoop(c, start, start.Add(time.Second), 10, func(i int, due time.Time) {
		if i == 2 {
			c.now = c.now.Add(350 * time.Millisecond)
			return
		}
		c.now = c.now.Add(20 * time.Millisecond)
	})
	if len(timings) != 10 {
		t.Fatalf("sent %d requests, want 10", len(timings))
	}
	ms := func(d time.Duration) int64 { return d.Milliseconds() }
	// Request 2 is due at 200ms and done at 550ms. Requests 3..5 are due
	// at 300, 400, 500ms but can only go out after their predecessor:
	// they are late, and their latency counts the wait. Request 6 is the
	// first the generator sends almost on time again.
	wantLat := []int64{20, 20, 350, 270, 190, 110, 30, 20, 20, 20}
	wantLate := []int64{0, 0, 0, 250, 170, 90, 10, 0, 0, 0}
	for i, tm := range timings {
		if got := ms(tm.latency()); got != wantLat[i] {
			t.Errorf("request %d latency %dms, want %d", i, got, wantLat[i])
		}
		if got := ms(tm.late()); got != wantLate[i] {
			t.Errorf("request %d late %dms, want %d", i, got, wantLate[i])
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "service.request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "sgmldb.query", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "oql.parse", Start: 50 * ms, End: 70 * ms},      // overlaps 2
		{ID: 4, Parent: 1, Name: "calculus.eval", Start: 90 * ms, End: 120 * ms}, // sticks out
		{ID: 5, Parent: 2, Name: "calculus.eval", Start: 20 * ms, End: 30 * ms},
	}
	self := selfTimes(spans)
	// Children of 1 cover [10,70] and [90,100]: 70ms of 100.
	want := map[int]time.Duration{1: 30 * ms, 2: 40 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["calculus"] != 40 || layers["service"] != 30 || layers["sgmldb"] != 40 || layers["oql"] != 20 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestValidName(t *testing.T) {
	for _, s := range []string{"setup_s", "latency_p50_ms", "text.clone_ms", "wal.bytes_per_user_byte", "9lives", "a-b"} {
		if !validName(s) {
			t.Errorf("%q rejected", s)
		}
	}
	long := "a"
	for len(long) < 65 {
		long += "a"
	}
	for _, s := range []string{"", "_lead", ".lead", "has space", "slash/no", "ms(p50)", "ünï", long} {
		if validName(s) {
			t.Errorf("%q accepted", s)
		}
	}
}

func TestQueryMixBlocks(t *testing.T) {
	total := 0
	for _, m := range mix {
		if m.pct*blockSize%100 != 0 {
			t.Errorf("share %d%% is not a whole number of slots in a block of %d", m.pct, blockSize)
		}
		total += m.pct
	}
	if total != 100 {
		t.Fatalf("shares add up to %d%%", total)
	}
	src := newOpSource(1)
	got := map[kind]int{}
	for i := 0; i < 4*blockSize; i++ {
		got[src.next().k]++
	}
	for _, m := range mix {
		if want := 4 * m.pct * blockSize / 100; got[m.k] != want {
			t.Errorf("template %d drawn %d times in 4 blocks, want %d", m.k, got[m.k], want)
		}
	}
}
