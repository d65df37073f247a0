package sgmldb

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Durable-lifecycle tests: clean-shutdown recovery, checkpoint compaction,
// schema pinning, and the sentinels — the crash-path counterparts live in
// crash_test.go.

// TestDurableRecoveryRoundTrip loads across several batches and namings,
// closes, reopens, and asserts the recovered database is indistinguishable:
// same epoch, same documents, same query answers, and still writable.
func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	if _, err := db.LoadDocuments([]string{src, src}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatal(err)
	}
	epoch := db.Epoch()
	docs := len(loadedDocs(db))
	count := articleCount(t, db)
	titles := mustQuery(t, db, chaosQuery).Len()
	db.Close()

	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epoch {
		t.Errorf("recovered epoch = %d, want %d", got, epoch)
	}
	if got := len(loadedDocs(rdb)); got != docs {
		t.Errorf("recovered documents = %d, want %d", got, docs)
	}
	if got := articleCount(t, rdb); got != count {
		t.Errorf("recovered articles = %d, want %d", got, count)
	}
	if got := mustQuery(t, rdb, chaosQuery).Len(); got != titles {
		t.Errorf("recovered reference query = %d, want %d", got, titles)
	}
	// The recovered database accepts further writes, which survive another
	// recovery.
	if _, err := rdb.LoadDocuments([]string{src}); err != nil {
		t.Fatalf("load after recovery: %v", err)
	}
	epoch2 := rdb.Epoch()
	rdb.Close()
	rdb2 := reopenDurable(t, dir)
	if got := rdb2.Epoch(); got != epoch2 {
		t.Errorf("second recovery epoch = %d, want %d", got, epoch2)
	}
	if got := len(loadedDocs(rdb2)); got != docs+1 {
		t.Errorf("second recovery documents = %d, want %d", got, docs+1)
	}
}

// TestDurableCheckpointTruncatesLog checkpoints and asserts the log
// shrank to (at most) its header while recovery still reproduces the full
// state from the checkpoint alone.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	if _, err := db.LoadDocuments([]string{src, src}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	after, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) >= len(before) {
		t.Errorf("log after checkpoint: %d bytes, want < %d", len(after), len(before))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") {
			ckpts++
		}
	}
	if ckpts != 1 {
		t.Errorf("checkpoint files = %d, want 1", ckpts)
	}
	epoch := db.Epoch()
	docs := len(loadedDocs(db))
	count := articleCount(t, db)
	db.Close()

	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epoch {
		t.Errorf("recovered epoch = %d, want %d", got, epoch)
	}
	if got := len(loadedDocs(rdb)); got != docs {
		t.Errorf("recovered documents = %d, want %d", got, docs)
	}
	if got := articleCount(t, rdb); got != count {
		t.Errorf("recovered articles = %d, want %d", got, count)
	}
	mustQuery(t, rdb, chaosQuery) // the naming came back through the checkpoint
	// Writes after a checkpoint land in the (truncated) log and recover on
	// top of the checkpointed base.
	if _, err := rdb.LoadDocuments([]string{src}); err != nil {
		t.Fatal(err)
	}
	epoch2 := rdb.Epoch()
	rdb.Close()
	rdb2 := reopenDurable(t, dir)
	if got := rdb2.Epoch(); got != epoch2 {
		t.Errorf("post-checkpoint recovery epoch = %d, want %d", got, epoch2)
	}
	if got := len(loadedDocs(rdb2)); got != docs+1 {
		t.Errorf("post-checkpoint recovery documents = %d, want %d", got, docs+1)
	}
}

// TestDurableAutoCheckpoint lets the background checkpointer (cadence 2)
// compact the log and asserts recovery still works — the asynchronous
// variant of the test above.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), WithDataDir(dir), WithCheckpointEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	src := articleSrc(t)
	for i := 0; i < 6; i++ {
		if _, err := db.LoadDocuments([]string{src}); err != nil {
			t.Fatal(err)
		}
	}
	epoch := db.Epoch()
	docs := len(loadedDocs(db))
	db.Close() // waits for the checkpointer to drain

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") {
			found = true
		}
	}
	if !found {
		t.Error("no checkpoint file after 6 committed records at cadence 2")
	}
	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epoch {
		t.Errorf("recovered epoch = %d, want %d", got, epoch)
	}
	if got := len(loadedDocs(rdb)); got != docs {
		t.Errorf("recovered documents = %d, want %d", got, docs)
	}
}

// TestDurableDTDPinned asserts a data directory refuses a different DTD —
// both via the schema log record and via a checkpoint.
func TestDurableDTDPinned(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	other := `<!ELEMENT note (#PCDATA)>`
	if _, err := OpenDTD(other, WithDataDir(t.TempDir())); err != nil {
		t.Fatalf("control open: %v", err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := OpenDTD(other, WithDataDir(dir)); err == nil || !strings.Contains(err.Error(), "different DTD") {
		t.Errorf("open with different DTD: err = %v, want DTD mismatch", err)
	}
}

// TestDurableSnapshotRejected: a durable database recovers from its own
// directory through OpenDTD, so OpenSnapshot with WithDataDir must fail
// loudly, not silently run without durability — and without creating the
// directory.
func TestDurableSnapshotRejected(t *testing.T) {
	db := openChaosDB(t)
	snap := filepath.Join(t.TempDir(), "db.snapshot")
	if err := db.Save(snap); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "data")
	if _, err := OpenSnapshot(snap, WithDataDir(dir)); err == nil {
		t.Error("OpenSnapshot with WithDataDir succeeded, want error")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected OpenSnapshot touched the data directory: stat err = %v", err)
	}
	if _, err := OpenSnapshot(snap); err != nil {
		t.Errorf("OpenSnapshot without data dir: %v", err)
	}
}

// TestDurableErrCorruptLogRoundTrip pins the sentinel plumbing: the
// public alias, errors.Is through the facade's wrapping, and that a torn
// tail does NOT surface it.
func TestDurableErrCorruptLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	if _, err := db.LoadDocuments([]string{articleSrc(t)}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Torn tail: drop the last byte — recovery succeeds, no sentinel.
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	rdb := reopenDurable(t, dir)
	rdb.Close()
	// Non-tail damage: flip a payload byte of the first record (the CRC
	// fails with records behind it, which cannot be a torn tail).
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	data[13+8+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenDTD(string(dtd), WithDataDir(dir))
	if err == nil {
		t.Fatal("open on corrupt log succeeded")
	}
	if !errors.Is(err, ErrCorruptLog) {
		t.Errorf("errors.Is(err, sgmldb.ErrCorruptLog) = false for %v", err)
	}
}

// TestDurableCloseIdempotent: Close twice, and Close on an in-memory
// database, are no-ops.
func TestDurableCloseIdempotent(t *testing.T) {
	db := openChaosDB(t)
	if err := db.Close(); err != nil {
		t.Errorf("Close on in-memory db: %v", err)
	}
	dir := t.TempDir()
	ddb := seedDurableDB(t, dir)
	if err := ddb.Close(); err != nil {
		t.Errorf("first Close: %v", err)
	}
	if err := ddb.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	// Writes after Close fail but do not corrupt the in-memory state.
	if _, err := ddb.LoadDocuments([]string{articleSrc(t)}); err == nil {
		t.Error("load after Close succeeded")
	}
	mustQuery(t, ddb, chaosQuery)
}

// TestInMemoryUnchanged: without WithDataDir nothing durable is
// configured — no log, no checkpointer, no files — and loads behave as
// before.
func TestInMemoryUnchanged(t *testing.T) {
	db := openChaosDB(t)
	if db.walLog != nil || db.ckptCh != nil || db.dataDir != "" {
		t.Error("in-memory database grew durability state")
	}
	if _, err := db.LoadDocuments([]string{articleSrc(t)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Errorf("Checkpoint on in-memory db: %v", err)
	}
}
