package sgmldb_test

// Failover chaos suite (make chaos runs it under -race): kill -9 the
// primary at every commit seam, promote the surviving durable follower,
// and prove the cluster comes out whole — the promoted node is a
// writable primary whose directory fscks clean, the restarted old
// primary rejoins as a follower with its stale (durable-but-unacked)
// suffix truncated at the term boundary, and no write that was ever
// acknowledged is lost. The fencing tests prove the other direction: an
// old primary that learns of a higher term refuses writes, and a
// follower that reaches a higher term refuses a stale source's frames.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgmldb"
	"sgmldb/internal/faultpoint"
	"sgmldb/internal/service"
	"sgmldb/internal/wal"
)

// failoverPrimary opens a durable primary in dir and serves it.
func failoverPrimary(t *testing.T, dtd, dir string) (*sgmldb.Database, *httptest.Server) {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	db, err := sgmldb.OpenDTD(dtd, sgmldb.WithDataDir(dir), sgmldb.WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv, err := service.New(db, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return db, ts
}

// durableFollower opens a durable (promotion-eligible) follower in dir
// and tails primaryURL until stop is called.
func durableFollower(t *testing.T, dtd, dir, primaryURL string) (*sgmldb.Database, func()) {
	t.Helper()
	fdb, _, stop := durableFollowerClient(t, dtd, dir, primaryURL)
	return fdb, stop
}

// durableFollowerClient is durableFollower that also hands back the
// replication client, whose telemetry (re-bootstraps, breaker) it owns.
func durableFollowerClient(t *testing.T, dtd, dir, primaryURL string) (*sgmldb.Database, *service.Follower, func()) {
	t.Helper()
	fdb, err := sgmldb.OpenFollower(dtd, sgmldb.WithDataDir(dir), sgmldb.WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	fl := &service.Follower{DB: fdb, Primary: primaryURL, WaitMS: 200, MinBackoff: 2 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fl.Run(ctx) }()
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Errorf("follower loop: %v", err)
		}
	}
	t.Cleanup(stop)
	return fdb, fl, stop
}

// snapshotDir copies every regular file in src into a fresh temp dir —
// the "photograph" of a data directory at the instant of a kill.
func snapshotDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// mustFsckClean runs the offline verifier over a data directory.
func mustFsckClean(t *testing.T, dir, what string) {
	t.Helper()
	rep, err := wal.Fsck(dir, false)
	if err != nil {
		t.Fatalf("fsck %s: %v", what, err)
	}
	if !rep.Clean() {
		t.Fatalf("fsck %s: not clean: %+v", what, rep)
	}
}

// TestChaosFailoverCommitSeams is the full failover drill at every WAL
// commit seam. The primary is photographed (kill -9 semantics) mid-
// commit, the caught-up durable follower is promoted, writes continue on
// the new primary, and the photograph restarts as a follower of the new
// primary. The post-fsync seam is the sharp case: the photograph holds a
// record that is durable on the old primary but was never acknowledged
// and never shipped — a stale term-1 suffix the rejoin must truncate at
// the term boundary, not replay.
func TestChaosFailoverCommitSeams(t *testing.T) {
	dtd, doc := replCorpus(t)
	for _, seam := range []string{"wal/append", "wal/post-append", "wal/post-fsync"} {
		t.Run(seam, func(t *testing.T) {
			pdir := t.TempDir()
			primary, ts := failoverPrimary(t, dtd, pdir)
			for i := 0; i < 2; i++ {
				if _, err := primary.LoadDocuments([]string{doc}); err != nil {
					t.Fatal(err)
				}
			}
			follower, stopTail := durableFollower(t, dtd, t.TempDir(), ts.URL)
			replWait(t, "initial catch-up", caughtUp(primary, follower))
			ackedSeq := replFeedSeq(t, primary)

			// Kill -9 mid-commit: photograph the primary's directory at the
			// seam, fail the load, then tear the primary down for good.
			var photo string
			disarm := faultpoint.Arm(seam, faultpoint.Once(func() error {
				photo = snapshotDir(t, pdir)
				return errReplBoom
			}))
			_, err := primary.LoadDocuments([]string{doc})
			disarm()
			if !errors.Is(err, errReplBoom) {
				t.Fatalf("load with %s armed: err = %v, want errReplBoom", seam, err)
			}
			stopTail()
			ts.Close()
			primary.Close()

			// Promote the survivor: writable primary at term 2, directory
			// fscks clean, and it takes new writes.
			newTerm, err := follower.Promote()
			if err != nil {
				t.Fatalf("Promote: %v", err)
			}
			if newTerm != 2 {
				t.Fatalf("Promote = term %d, want 2", newTerm)
			}
			if follower.IsFollower() {
				t.Fatal("promoted node still reports IsFollower")
			}
			oids, err := follower.LoadDocuments([]string{doc})
			if err != nil {
				t.Fatalf("load on promoted node: %v", err)
			}
			if err := follower.Name("after_failover", oids[0]); err != nil {
				t.Fatalf("name on promoted node: %v", err)
			}
			wantArticles := replArticleCount(t, follower)

			// The old primary restarts from its photograph as a follower of
			// the new primary and must converge — including truncating any
			// stale suffix the kill left durable.
			nsrv, err := service.New(follower, service.Config{})
			if err != nil {
				t.Fatal(err)
			}
			nts := httptest.NewServer(nsrv)
			defer nts.Close()
			rejoiner, _ := durableFollower(t, dtd, photo, nts.URL)
			replWait(t, "old primary rejoining", caughtUp(follower, rejoiner))

			if got := rejoiner.Term(); got != 2 {
				t.Errorf("rejoiner term = %d, want 2", got)
			}
			if got := replArticleCount(t, rejoiner); got != wantArticles {
				t.Errorf("rejoiner articles = %d, want %d (stale suffix must not survive)", got, wantArticles)
			}
			if got := replArticleCount(t, follower); got < 3 {
				t.Errorf("new primary articles = %d, want >= 3 (acked writes lost)", got)
			}
			if replFeedSeq(t, follower) < ackedSeq {
				t.Errorf("new primary seq %d below acked seq %d", replFeedSeq(t, follower), ackedSeq)
			}
			// The shipped name resolves on the rejoiner.
			if _, err := rejoiner.Query(`select t from after_failover PATH_p.title(t)`); err != nil {
				t.Errorf("rejoiner query over post-failover name: %v", err)
			}
		})
	}
}

// TestChaosFailoverRejoinerSurvivesRestart: after rejoining, the old
// primary's directory is a coherent term-2 follower state — fsck passes
// and a clean reopen resumes at the same position without re-bootstrap.
func TestChaosFailoverRejoinerSurvivesRestart(t *testing.T) {
	dtd, doc := replCorpus(t)
	pdir := t.TempDir()
	primary, ts := failoverPrimary(t, dtd, pdir)
	if _, err := primary.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	follower, stopTail := durableFollower(t, dtd, t.TempDir(), ts.URL)
	replWait(t, "catch-up", caughtUp(primary, follower))

	// Photograph a post-fsync kill: the doomed record is durable in the
	// photo but unshipped and unacknowledged.
	var photo string
	disarm := faultpoint.Arm("wal/post-fsync", faultpoint.Once(func() error {
		photo = snapshotDir(t, pdir)
		return errReplBoom
	}))
	if _, err := primary.LoadDocuments([]string{doc}); !errors.Is(err, errReplBoom) {
		t.Fatalf("killed load: %v", err)
	}
	disarm()
	stopTail()
	ts.Close()
	primary.Close()

	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := follower.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	nsrv, err := service.New(follower, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(nsrv)
	defer nts.Close()
	rejoiner, stopRejoin := durableFollower(t, dtd, photo, nts.URL)
	replWait(t, "rejoin", caughtUp(follower, rejoiner))
	seq, term := rejoiner.AppliedSeq(), rejoiner.Term()
	stopRejoin()
	if err := rejoiner.Close(); err != nil {
		t.Fatal(err)
	}

	mustFsckClean(t, photo, "rejoined old primary")
	reopened, err := sgmldb.OpenFollower(dtd, sgmldb.WithDataDir(photo), sgmldb.WithCheckpointEvery(-1))
	if err != nil {
		t.Fatalf("reopening rejoined directory: %v", err)
	}
	defer reopened.Close()
	if got := reopened.AppliedSeq(); got != seq {
		t.Errorf("reopened applied seq = %d, want %d (durable follower must resume, not re-bootstrap)", got, seq)
	}
	if got := reopened.Term(); got != term {
		t.Errorf("reopened term = %d, want %d", got, term)
	}
	if got := replArticleCount(t, reopened); got != replArticleCount(t, follower) {
		t.Errorf("reopened articles = %d, want %d", got, replArticleCount(t, follower))
	}
}

// TestChaosFailoverFencing: once any feed client reports a higher term,
// the old primary fences itself — writes fail with STALE_TERM at the
// facade and 409 on the wire — while reads and the feed keep serving, so
// clients drain away instead of seeing a dead socket.
func TestChaosFailoverFencing(t *testing.T) {
	dtd, doc := replCorpus(t)
	primary, ts := failoverPrimary(t, dtd, t.TempDir())
	if _, err := primary.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	follower, stopTail := durableFollower(t, dtd, t.TempDir(), ts.URL)
	replWait(t, "catch-up", caughtUp(primary, follower))
	stopTail()
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}

	// The promoted node's term reaches the old primary over the feed —
	// here via one poll carrying term=2, as the hardened client sends.
	resp, err := http.Get(fmt.Sprintf("%s/v1/feed?after=%d&term=%d&wait_ms=1", ts.URL, replFeedSeq(t, primary), follower.Term()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Fenced: every write path refuses.
	if _, err := primary.LoadDocuments([]string{doc}); !errors.Is(err, sgmldb.ErrStaleTerm) {
		t.Fatalf("fenced primary LoadDocuments: err = %v, want ErrStaleTerm", err)
	}
	if err := primary.Name("nope", 1); !errors.Is(err, sgmldb.ErrStaleTerm) {
		t.Fatalf("fenced primary Name: err = %v, want ErrStaleTerm", err)
	}
	// On the wire it is 409 STALE_TERM.
	payload, err := json.Marshal(map[string]any{"documents": []string{doc}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/load", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fenced load over the wire: status %d, want 409", resp.StatusCode)
	}
	// Reads still serve.
	if got := replArticleCount(t, primary); got != 1 {
		t.Fatalf("fenced primary reads: %d articles, want 1", got)
	}
}

// TestChaosFailoverStaleSourceRejected: a follower that has applied a
// term-2 history refuses to tail a term-1 primary — polls error, nothing
// applies, state is untouched. This is what stops a misconfigured (or
// split-brained) re-point from silently forking a replica.
func TestChaosFailoverStaleSourceRejected(t *testing.T) {
	dtd, doc := replCorpus(t)
	oldPrimary, oldTS := failoverPrimary(t, dtd, t.TempDir())
	if _, err := oldPrimary.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	newPrimary, stopTail := durableFollower(t, dtd, t.TempDir(), oldTS.URL)
	replWait(t, "catch-up", caughtUp(oldPrimary, newPrimary))
	stopTail()
	if _, err := newPrimary.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := newPrimary.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	nsrv, err := service.New(newPrimary, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(nsrv)
	defer nts.Close()

	// G follows the new primary to term 2 …
	g, stopG := durableFollower(t, dtd, t.TempDir(), nts.URL)
	replWait(t, "G catching up to term 2", caughtUp(newPrimary, g))
	if got := g.Term(); got != 2 {
		t.Fatalf("G term = %d, want 2", got)
	}
	stopG()
	applied0, epoch0 := g.AppliedSeq(), g.Epoch()

	// … and is then misdirected at the old term-1 primary. Every poll
	// must bounce (the anchor's term is not in the old history), nothing
	// may apply.
	fl := &service.Follower{DB: g, Primary: oldTS.URL, WaitMS: 50, MinBackoff: time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fl.Run(ctx) }()
	time.Sleep(250 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("misdirected follower loop returned %v, want to keep retrying until cancelled", err)
	}
	if got := g.AppliedSeq(); got != applied0 {
		t.Errorf("G applied %d records from a stale source (seq %d -> %d)", got-applied0, applied0, got)
	}
	if got := g.Epoch(); got != epoch0 {
		t.Errorf("G epoch moved %d -> %d against a stale source", epoch0, got)
	}
	if got := g.Term(); got != 2 {
		t.Errorf("G term = %d, want 2 (never regresses)", got)
	}
}

// TestChaosFailoverStaleCheckpointRejected: the bootstrap path must not
// adopt a deposed primary's forked history. A follower at term 2 is
// misdirected at a term-1 primary that has checkpointed *past* the
// follower's applied position — so the feed bounces it to bootstrap, and
// the stale checkpoint, if installed, would silently rewind the follower
// onto the fork (and durably discard its term-2 history). Both guards
// must hold: the bootstrap client refuses the stale source by its term
// header, and ApplyCheckpoint refuses the stale-term checkpoint itself.
func TestChaosFailoverStaleCheckpointRejected(t *testing.T) {
	dtd, doc := replCorpus(t)
	oldPrimary, oldTS := failoverPrimary(t, dtd, t.TempDir())
	if _, err := oldPrimary.LoadDocuments([]string{doc}); err != nil {
		t.Fatal(err)
	}
	newPrimary, stopTail := durableFollower(t, dtd, t.TempDir(), oldTS.URL)
	replWait(t, "catch-up", caughtUp(oldPrimary, newPrimary))
	stopTail()
	if _, err := newPrimary.Promote(); err != nil {
		t.Fatal(err)
	}
	nsrv, err := service.New(newPrimary, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(nsrv)
	defer nts.Close()

	// G follows the new primary to term 2 …
	g, stopG := durableFollower(t, dtd, t.TempDir(), nts.URL)
	replWait(t, "G catching up to term 2", caughtUp(newPrimary, g))
	if got := g.Term(); got != 2 {
		t.Fatalf("G term = %d, want 2", got)
	}
	stopG()

	// … while the deposed primary keeps extending its fork and writes a
	// checkpoint well past G's applied position.
	for i := 0; i < 3; i++ {
		if _, err := oldPrimary.LoadDocuments([]string{doc}); err != nil {
			t.Fatal(err)
		}
	}
	if err := oldPrimary.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applied0, articles0 := g.AppliedSeq(), replArticleCount(t, g)

	// Misdirect G at the deposed primary: every handshake (feed bounce →
	// checkpoint bootstrap) must be refused, nothing may install.
	fl := &service.Follower{DB: g, Primary: oldTS.URL, WaitMS: 50,
		MinBackoff: time.Millisecond, BreakerCooldown: 2 * time.Millisecond}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- fl.Run(ctx) }()
	time.Sleep(250 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("misdirected follower loop returned %v, want to keep retrying until cancelled", err)
	}
	if got := g.AppliedSeq(); got != applied0 {
		t.Errorf("G applied seq moved %d -> %d against a stale checkpoint", applied0, got)
	}
	if got := g.Term(); got != 2 {
		t.Errorf("G term = %d, want 2 (stale checkpoint must never install)", got)
	}
	if got := replArticleCount(t, g); got != articles0 {
		t.Errorf("G articles = %d, want %d (forked history adopted)", got, articles0)
	}
	if got := fl.Rebootstraps(); got != 0 {
		t.Errorf("G counted %d bootstraps from a stale source, want 0", got)
	}
	// The direct guard, on the exact checkpoint the wire would carry: a
	// term-1 checkpoint past the applied position is ErrStaleTerm.
	path, _, ok, err := oldPrimary.NewestCheckpointFile()
	if err != nil || !ok {
		t.Fatalf("old primary checkpoint: ok=%v err=%v", ok, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wal.DecodeCheckpoint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if ck.Term != 1 || ck.Seq <= applied0 {
		t.Fatalf("stale checkpoint (seq %d, term %d) does not cover the dangerous shape (applied %d)", ck.Seq, ck.Term, applied0)
	}
	if err := g.ApplyCheckpoint(ck); !errors.Is(err, sgmldb.ErrStaleTerm) {
		t.Fatalf("ApplyCheckpoint(stale term) = %v, want ErrStaleTerm", err)
	}
}

// TestChaosFailoverIdleRejoinConverges: a deposed primary whose stale
// unshipped suffix reaches *past* the idle new primary's last record
// must still detect the divergence on its first poll. Before the fix the
// feed long-poll parked on `after >= seq` and served empty 200s forever —
// the rejoiner looked healthy while serving its forked suffix to readers.
func TestChaosFailoverIdleRejoinConverges(t *testing.T) {
	dtd, doc := replCorpus(t)
	pdir := t.TempDir()
	primary, ts := failoverPrimary(t, dtd, pdir)
	for i := 0; i < 2; i++ {
		if _, err := primary.LoadDocuments([]string{doc}); err != nil {
			t.Fatal(err)
		}
	}
	follower, stopTail := durableFollower(t, dtd, t.TempDir(), ts.URL)
	replWait(t, "catch-up", caughtUp(primary, follower))
	stopTail()

	// The doomed primary commits an unshipped suffix, then dies.
	for i := 0; i < 2; i++ {
		if _, err := primary.LoadDocuments([]string{doc}); err != nil {
			t.Fatal(err)
		}
	}
	ts.Close()
	primary.Close()

	// Promote the survivor — and leave the cluster idle: no new writes, so
	// the rejoiner's stale anchor stays ahead of the new primary's log.
	if _, err := follower.Promote(); err != nil {
		t.Fatal(err)
	}
	wantArticles := replArticleCount(t, follower)
	nsrv, err := service.New(follower, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	nts := httptest.NewServer(nsrv)
	defer nts.Close()

	// The deposed primary rejoins from its own directory. Its first poll
	// anchors past the idle new primary's last record; it must get the 409
	// that triggers the truncating re-bootstrap, not park on empty 200s.
	rejoiner, rejoinClient, _ := durableFollowerClient(t, dtd, pdir, nts.URL)
	replWait(t, "idle rejoiner converging", caughtUp(follower, rejoiner))
	if got := rejoiner.Term(); got != 2 {
		t.Errorf("rejoiner term = %d, want 2", got)
	}
	if got := replArticleCount(t, rejoiner); got != wantArticles {
		t.Errorf("rejoiner articles = %d, want %d (stale suffix must not survive)", got, wantArticles)
	}
	if got := rejoinClient.Rebootstraps(); got < 1 {
		t.Errorf("rejoiner Rebootstraps = %d, want >= 1 (divergence must force a bootstrap)", got)
	}
	mustFsckClean(t, pdir, "rejoined old primary")
}

// TestChaosFailoverReplicaGapUnit pins the typed contract ApplyRecord
// reports when the stream skips past the applied position: ErrReplicaGap
// (re-bootstrap), distinct from the plain out-of-order error and from
// ErrStaleTerm.
func TestChaosFailoverReplicaGapUnit(t *testing.T) {
	dtd, doc := replCorpus(t)
	fdb, err := sgmldb.OpenFollower(dtd)
	if err != nil {
		t.Fatal(err)
	}
	if err := fdb.ApplyRecord(wal.Record{Kind: wal.KindSchema, Seq: 1, Term: 1, Schema: dtd}); err != nil {
		t.Fatal(err)
	}
	// Seq 3 with only 1 applied: a gap, typed for re-bootstrap.
	err = fdb.ApplyRecord(wal.Record{Kind: wal.KindLoad, Seq: 3, Term: 1, Docs: []string{doc}})
	if !errors.Is(err, sgmldb.ErrReplicaGap) {
		t.Fatalf("gap apply: err = %v, want ErrReplicaGap", err)
	}
	if sgmldb.Code(err) != sgmldb.CodeReplicaGap {
		t.Fatalf("gap apply code = %q, want REPLICA_GAP", sgmldb.Code(err))
	}
	// A stale-term record is the other typed refusal.
	if err := fdb.ApplyRecord(wal.Record{Kind: wal.KindTerm, Seq: 2, Term: 3}); err != nil {
		t.Fatal(err)
	}
	err = fdb.ApplyRecord(wal.Record{Kind: wal.KindLoad, Seq: 3, Term: 1, Docs: []string{doc}})
	if !errors.Is(err, sgmldb.ErrStaleTerm) {
		t.Fatalf("stale-term apply: err = %v, want ErrStaleTerm", err)
	}
	// And a promoted (non-follower) database refuses applies outright.
	pdb, err := sgmldb.OpenDTD(dtd)
	if err != nil {
		t.Fatal(err)
	}
	err = pdb.ApplyRecord(wal.Record{Kind: wal.KindLoad, Seq: 1, Term: 1, Docs: []string{doc}})
	if !errors.Is(err, sgmldb.ErrNotFollower) {
		t.Fatalf("apply on non-follower: err = %v, want ErrNotFollower", err)
	}
}
