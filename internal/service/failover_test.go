package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sgmldb"
	"sgmldb/internal/wal"
)

// TestFollowerBackoffJitter: retry delays are full-jitter — bounded by
// the exponential ceiling, never zero, and actually spread out. A
// deterministic doubling would make every follower of a dead primary
// retry in synchronized waves; jitter is what breaks the thundering
// herd, so its absence is a bug worth a regression test.
func TestFollowerBackoffJitter(t *testing.T) {
	f := &Follower{MinBackoff: 8 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}
	seen := map[time.Duration]bool{}
	for attempt := 0; attempt < 8; attempt++ {
		ceil := 8 * time.Millisecond << attempt
		if ceil > 100*time.Millisecond {
			ceil = 100 * time.Millisecond
		}
		for i := 0; i < 200; i++ {
			d := f.backoffDelay(attempt)
			if d <= 0 || d > ceil {
				t.Fatalf("backoffDelay(%d) = %v, want in (0, %v]", attempt, d, ceil)
			}
			seen[d] = true
		}
	}
	if len(seen) < 50 {
		t.Fatalf("backoffDelay produced only %d distinct delays over 1600 draws — not jittered", len(seen))
	}
	// Huge attempt counts must not overflow the shift into a negative
	// ceiling: the cap holds forever.
	for _, attempt := range []int{31, 63, 1 << 20} {
		if d := f.backoffDelay(attempt); d <= 0 || d > 100*time.Millisecond {
			t.Fatalf("backoffDelay(%d) = %v, want in (0, 100ms]", attempt, d)
		}
	}
}

// TestFollowerRejectsStaleSource: a feed response whose Sgmldb-Term
// header is behind the follower's own term is a deposed primary still
// serving its old history. The poll must drop the entire response
// before decoding a single frame — applying even one record from a
// stale term would fork the replica.
func TestFollowerRejectsStaleSource(t *testing.T) {
	dtd, doc := readCorpus(t)
	fdb, err := sgmldb.OpenFollower(dtd)
	if err != nil {
		t.Fatal(err)
	}
	// Move the follower to term 2 the way the wire would: a shipped
	// promotion record.
	if err := fdb.ApplyRecord(wal.Record{Kind: wal.KindSchema, Seq: 1, Term: 1, Schema: dtd}); err != nil {
		t.Fatal(err)
	}
	if err := fdb.ApplyRecord(wal.Record{Kind: wal.KindTerm, Seq: 2, Term: 2}); err != nil {
		t.Fatal(err)
	}
	if got := fdb.Term(); got != 2 {
		t.Fatalf("follower term = %d, want 2", got)
	}

	// A fake old primary: happily serves a decodable term-1 frame at the
	// follower's anchor, headers stamped term 1.
	body := wal.EncodeFrame(wal.Record{Kind: wal.KindLoad, Seq: 3, Term: 1, Docs: []string{doc}})
	served := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		w.Header().Set(headerSeq, "3")
		w.Header().Set(headerPrimarySeq, "3")
		w.Header().Set(headerTerm, "1")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}))
	defer ts.Close()

	f := &Follower{DB: fdb, Primary: ts.URL, WaitMS: 50}
	progressed, perr := f.poll(context.Background())
	if served == 0 {
		t.Fatal("fake primary never served")
	}
	if progressed || !errors.Is(perr, sgmldb.ErrStaleTerm) {
		t.Fatalf("poll from stale source = (progressed %v, %v), want (false, ErrStaleTerm)", progressed, perr)
	}
	if got := fdb.AppliedSeq(); got != 2 {
		t.Fatalf("follower applied %d after stale-source poll, want 2 (nothing applied)", got)
	}
}

// TestFollowerGapRebootstraps: a feed stream that skips records — here a
// proxy silently dropping the first frame of one response — must not
// apply around the hole. ApplyRecord reports ErrReplicaGap, the loop
// re-bootstraps from the primary's checkpoint, and the follower still
// converges to exactly the primary's state. The rebootstrap is counted
// in the replication client's telemetry.
func TestFollowerGapRebootstraps(t *testing.T) {
	dtd, doc := readCorpus(t)
	pdb := openPrimary(t, dtd)
	if _, err := pdb.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint the gapped follower will re-bootstrap from — taken
	// before the last two loads, so those ship as feed frames the proxy
	// can drop one of.
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := pdb.LoadDocuments([]string{doc}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(pdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	real := httptest.NewServer(srv)
	defer real.Close()

	// Proxy: pass everything through, but cut the first frame out of the
	// first non-empty feed body — the wire signature of a lossy relay.
	var dropped atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, hdr, body := proxyGet(t, real.URL+r.URL.String())
		if !dropped.Load() && status == http.StatusOK && strings.HasPrefix(r.URL.Path, "/v1/feed") && len(body) > 0 {
			_, n, derr := wal.DecodeFrame(body)
			if derr == nil && n < len(body) {
				body = body[n:]
				dropped.Store(true)
			}
		}
		for k, vs := range hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(status)
		w.Write(body)
	}))
	defer proxy.Close()

	fdb, err := sgmldb.OpenFollower(dtd)
	if err != nil {
		t.Fatal(err)
	}
	f := &Follower{DB: fdb, Primary: proxy.URL, WaitMS: 100, MinBackoff: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("follower loop: %v", err)
		}
	}()

	waitFor(t, "convergence across the gap", func() bool {
		seq, err := pdb.FeedSeq()
		return err == nil && fdb.AppliedSeq() == seq
	})
	if !dropped.Load() {
		t.Fatal("proxy never dropped a frame — the gap path was not exercised")
	}
	if fdb.Epoch() != pdb.Epoch() {
		t.Fatalf("epochs diverged: follower %d, primary %d", fdb.Epoch(), pdb.Epoch())
	}
	if got := f.Rebootstraps(); got < 1 {
		t.Fatalf("follower Rebootstraps = %d, want >= 1", got)
	}
	if got := followerTelemetry(t, fdb, f); got.Rebootstraps != f.Rebootstraps() || got.BreakerOpen {
		t.Fatalf("/v1/stats follower section = %+v, want rebootstraps %d, breaker closed", got, f.Rebootstraps())
	}
}

// followerTelemetry reads the follower section of /v1/stats from a server
// over fdb wired with f, and checks /v1/health reports the same values.
func followerTelemetry(t *testing.T, fdb *sgmldb.Database, f *Follower) followerStats {
	t.Helper()
	srv, err := New(fdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Follower = f
	get := func(path string, v any) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
	}
	var stats struct {
		Follower followerStats `json:"follower"`
	}
	get("/v1/stats", &stats)
	var health followerStats
	get("/v1/health", &health)
	if health != stats.Follower {
		t.Errorf("/v1/health follower telemetry %+v disagrees with /v1/stats %+v", health, stats.Follower)
	}
	return stats.Follower
}

func proxyGet(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("proxy upstream: %v", err)
	}
	defer resp.Body.Close()
	body := make([]byte, 0, 1024)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	return resp.StatusCode, resp.Header, body
}

// TestServicePromoteEndpoint: POST /v1/promote flips a durable follower
// into a writable primary and reports the new term; a second promote —
// or one against a node that was never a follower — is 409 NOT_FOLLOWER
// (the caller learns the first promote won). The OnPromote hook fires
// exactly once with the new term.
func TestServicePromoteEndpoint(t *testing.T) {
	dtd, doc := readCorpus(t)
	pdb := openPrimary(t, dtd)
	if _, err := pdb.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	srv, err := New(pdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(srv)
	defer pts.Close()

	fdb, err := sgmldb.OpenFollower(dtd, sgmldb.WithDataDir(t.TempDir()), sgmldb.WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	fl := &Follower{DB: fdb, Primary: pts.URL, WaitMS: 100, MinBackoff: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fl.Run(ctx) }()
	waitFor(t, "catch-up", func() bool {
		seq, err := pdb.FeedSeq()
		return err == nil && fdb.AppliedSeq() == seq
	})
	cancel()
	<-done

	var hookTerm uint64
	fsrv, err := New(fdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fsrv.OnPromote = func(term uint64) { hookTerm = term }
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	resp, err := http.Post(fts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var promoted struct {
		Promoted bool   `json:"promoted"`
		Term     uint64 `json:"term"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !promoted.Promoted || promoted.Term != 2 {
		t.Fatalf("promote: status %d, body %+v, want 200/term 2", resp.StatusCode, promoted)
	}
	if hookTerm != 2 {
		t.Fatalf("OnPromote hook saw term %d, want 2", hookTerm)
	}
	if fdb.IsFollower() {
		t.Fatal("database still a follower after promote")
	}
	if _, err := fdb.LoadDocuments([]string{doc}); err != nil {
		t.Fatalf("load on promoted node: %v", err)
	}

	// Second promote: 409 NOT_FOLLOWER.
	resp, err = http.Post(fts.URL+"/v1/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || eb.Error.Code != sgmldb.CodeNotFollower {
		t.Fatalf("second promote: status %d code %q, want 409 NOT_FOLLOWER", resp.StatusCode, eb.Error.Code)
	}
}

// TestServiceHealthFailoverShape: the failover telemetry keys are wire
// contract — monitors alert on them, so a renamed or vanished key is a
// silent monitoring outage. They are present on every node, not just
// replicating ones.
func TestServiceHealthFailoverShape(t *testing.T) {
	dtd, _ := readCorpus(t)
	pdb := openPrimary(t, dtd)
	srv, err := New(pdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	status, _, body := rawGet(t, ts, "/v1/health")
	if status != http.StatusOK {
		t.Fatalf("health: status %d", status)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("health body: %v", err)
	}
	for _, key := range []string{"term", "promotions", "rebootstraps", "breaker_open"} {
		if _, ok := health[key]; !ok {
			t.Errorf("health body missing %q: %s", key, body)
		}
	}
	if got, ok := health["term"].(float64); !ok || got != 1 {
		t.Errorf("health term = %v, want 1 (fresh durable log)", health["term"])
	}

	// No replication client is wired into a primary: its telemetry reads
	// zero, in /v1/health and in the /v1/stats follower section alike.
	if health["rebootstraps"] != float64(0) || health["breaker_open"] != false {
		t.Errorf("primary health rebootstraps/breaker_open = %v/%v, want 0/false", health["rebootstraps"], health["breaker_open"])
	}
	_, _, body = rawGet(t, ts, "/v1/stats")
	var stats struct {
		Engine   map[string]any `json:"engine"`
		Follower map[string]any `json:"follower"`
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats body: %v", err)
	}
	for _, key := range []string{"Term", "Promotions"} {
		if _, ok := stats.Engine[key]; !ok {
			t.Errorf("/v1/stats engine section missing %q: %s", key, body)
		}
	}
	for _, key := range []string{"rebootstraps", "breaker_open"} {
		if _, ok := stats.Follower[key]; !ok {
			t.Errorf("/v1/stats follower section missing %q: %s", key, body)
		}
	}
}

// TestFollowerBreakerOpens: when every bootstrap attempt fails, the
// circuit breaker opens after the threshold and the state is visible in
// the replication client's telemetry; when a bootstrap finally succeeds
// the breaker closes again.
func TestFollowerBreakerOpens(t *testing.T) {
	dtd, doc := readCorpus(t)
	pdb := openPrimary(t, dtd)
	for i := 0; i < 3; i++ {
		if _, err := pdb.LoadDocuments([]string{doc}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(pdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	real := httptest.NewServer(srv)
	defer real.Close()

	// Proxy: force the bootstrap path (410 on every feed) and fail the
	// checkpoint fetch until released.
	var releaseCkpt atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasPrefix(r.URL.Path, "/v1/feed") && !releaseCkpt.Load():
			w.WriteHeader(http.StatusGone)
			fmt.Fprint(w, `{"error":{"code":"SEQ_TRUNCATED","message":"forced"}}`)
		case strings.HasPrefix(r.URL.Path, "/v1/checkpoint") && !releaseCkpt.Load():
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":{"code":"INTERNAL","message":"forced"}}`)
		default:
			status, hdr, body := proxyGet(t, real.URL+r.URL.String())
			for k, vs := range hdr {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.WriteHeader(status)
			w.Write(body)
		}
	}))
	defer proxy.Close()

	fdb, err := sgmldb.OpenFollower(dtd)
	if err != nil {
		t.Fatal(err)
	}
	f := &Follower{
		DB: fdb, Primary: proxy.URL, WaitMS: 50,
		MinBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("follower loop: %v", err)
		}
	}()

	waitFor(t, "breaker to open", f.BreakerOpen)
	// Every bootstrap still fails, so the breaker stays open while read.
	if got := followerTelemetry(t, fdb, f); !got.BreakerOpen || got.Rebootstraps != 0 {
		t.Errorf("/v1/stats follower section = %+v, want breaker open, no rebootstraps", got)
	}
	releaseCkpt.Store(true)
	waitFor(t, "breaker to close after a successful bootstrap", func() bool {
		return !f.BreakerOpen() && f.Rebootstraps() >= 1
	})
	waitFor(t, "convergence", func() bool {
		seq, err := pdb.FeedSeq()
		return err == nil && fdb.AppliedSeq() == seq
	})
}

// TestFollowerBreakerClosesOnPollSuccess: the loop can also recover
// without ever completing a bootstrap — the primary's retained log still
// covers the follower's anchor once the fault clears, so a plain poll
// succeeds. The breaker must close on that path too; leaving it open
// would report breaker_open in /v1/stats and /v1/health forever and pace
// every later transient retry at the breaker cooldown instead of the
// jittered backoff.
func TestFollowerBreakerClosesOnPollSuccess(t *testing.T) {
	dtd, doc := readCorpus(t)
	pdb := openPrimary(t, dtd)
	for i := 0; i < 2; i++ {
		if _, err := pdb.LoadDocuments([]string{doc}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(pdb, Config{})
	if err != nil {
		t.Fatal(err)
	}
	real := httptest.NewServer(srv)
	defer real.Close()

	// Until released, force the bootstrap path (410 on every feed) and
	// fail every checkpoint fetch, so the breaker opens. The primary never
	// checkpoints, so after release the follower's anchor is still in the
	// retained log and recovery happens via a plain successful poll — no
	// bootstrap ever completes.
	var release atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !release.Load() {
			if strings.HasPrefix(r.URL.Path, "/v1/feed") {
				w.WriteHeader(http.StatusGone)
				fmt.Fprint(w, `{"error":{"code":"SEQ_TRUNCATED","message":"forced"}}`)
			} else {
				w.WriteHeader(http.StatusInternalServerError)
				fmt.Fprint(w, `{"error":{"code":"INTERNAL","message":"forced"}}`)
			}
			return
		}
		status, hdr, body := proxyGet(t, real.URL+r.URL.String())
		for k, vs := range hdr {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(status)
		w.Write(body)
	}))
	defer proxy.Close()

	fdb, err := sgmldb.OpenFollower(dtd)
	if err != nil {
		t.Fatal(err)
	}
	f := &Follower{
		DB: fdb, Primary: proxy.URL, WaitMS: 50,
		MinBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
		BreakerThreshold: 3, BreakerCooldown: 5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("follower loop: %v", err)
		}
	}()

	waitFor(t, "breaker to open", f.BreakerOpen)
	release.Store(true)
	waitFor(t, "convergence via plain polls", func() bool {
		seq, err := pdb.FeedSeq()
		return err == nil && fdb.AppliedSeq() == seq
	})
	waitFor(t, "breaker to close without a bootstrap", func() bool { return !f.BreakerOpen() })
	if got := f.Rebootstraps(); got != 0 {
		t.Fatalf("follower Rebootstraps = %d, want 0 (recovery was poll-only)", got)
	}
	if got := followerTelemetry(t, fdb, f); got != (followerStats{}) {
		t.Errorf("/v1/stats follower section = %+v, want zero (breaker closed, no rebootstraps)", got)
	}
}
