package main

import "time"

// clock is the time source of the load generators; tests substitute a
// fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// opTiming is one request of a load generator. An open loop times the
// request from when it was due, so a stall also charges the requests it
// delayed; Late is how far behind schedule the generator sent it.
type opTiming struct {
	Due, Sent, Done time.Time
}

func (o opTiming) latency() time.Duration { return o.Done.Sub(o.Due) }

func (o opTiming) late() time.Duration { return o.Sent.Sub(o.Due) }

// openLoop issues op at a fixed rate from one goroutine until end: the
// i-th request is due at start + i/rate whatever happened before it, and
// is sent as soon as both its due time has come and the previous request
// has finished. It returns the timing of every request sent.
func openLoop(c clock, start, end time.Time, rate float64, op func(i int, due time.Time)) []opTiming {
	interval := time.Duration(float64(time.Second) / rate)
	var out []opTiming
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return out
		}
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		sent := c.Now()
		op(i, due)
		out = append(out, opTiming{Due: due, Sent: sent, Done: c.Now()})
	}
}

// closedLoop issues op back to back from one goroutine until end.
func closedLoop(end time.Time, op func()) {
	for time.Now().Before(end) {
		op()
	}
}
