package sgmldb

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sgmldb/internal/calculus"
	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
	"sgmldb/internal/wal"
)

// The facade promises sentinel errors testable with errors.Is, no matter
// how many wrapping layers the failing operation adds.

// TestErrReadOnlyAfterClose: every write path of a closed durable
// database — load, naming, checkpoint, and a follower's apply — fails with
// ErrReadOnly (wire code READ_ONLY). None of them may reach the closed
// log: an append there would poison it and surface as a storage fault
// (DEGRADED), and a checkpoint would leave a new file behind.
func TestErrReadOnlyAfterClose(t *testing.T) {
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := OpenDTD(string(dtd), WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db.LoadDocument(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckPath, _, _, err := db.NewestCheckpointFile()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))

	wantReadOnly := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrReadOnly) || Code(err) != CodeReadOnly {
			t.Errorf("%s after Close: err = %v (code %s), want ErrReadOnly / %s", op, err, Code(err), CodeReadOnly)
		}
	}
	_, err = db.LoadDocument(string(src))
	wantReadOnly("LoadDocument", err)
	wantReadOnly("Name", db.Name("after_close", oid))
	wantReadOnly("Checkpoint", db.Checkpoint())

	st := db.Stats()
	if st.Degraded {
		t.Errorf("closed database reports degraded: %s", st.DegradedReason)
	}
	if st.CheckpointFailures != 0 {
		t.Errorf("CheckpointFailures = %d, want 0", st.CheckpointFailures)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
	if !reflect.DeepEqual(before, after) {
		t.Errorf("checkpoint files %v after Close, want %v", after, before)
	}
	if _, err := db.Query(`select t from a in Articles, a.title(t)`); err != nil {
		t.Errorf("closed database stopped answering queries: %v", err)
	}

	// A closed durable follower refuses the apply path the same way.
	f, err := os.Open(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wal.DecodeCheckpoint(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	fdb, err := OpenFollower(string(dtd), WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	wantReadOnly("ApplyCheckpoint", fdb.ApplyCheckpoint(ck))
	wantReadOnly("ApplyRecord", fdb.ApplyRecord(wal.Record{Seq: 1, Kind: wal.KindSchema, Schema: string(dtd)}))
	if st := fdb.Stats(); st.Degraded || st.AppliedSeq != 0 {
		t.Errorf("closed follower: degraded=%v applied=%d, want neither", st.Degraded, st.AppliedSeq)
	}
}

func TestErrUnknownObjectFromName(t *testing.T) {
	db := openArticleDB(t)
	err := db.Name("ghost", object.OID(1<<40))
	if !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Name with bogus oid: err = %v, want errors.Is ErrUnknownObject", err)
	}
}

func TestErrBudgetExceededFromQuery(t *testing.T) {
	db, err := OpenDTDFile("testdata/article.dtd", WithQueryTimeout(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db.LoadDocumentFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		t.Fatal(err)
	}
	_, err = db.Query(`select t from my_article PATH_p.title(t)`)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("query over budget: err = %v, want errors.Is ErrBudgetExceeded", err)
	}
	// The facade sentinel aliases the internal one, so errors.Is holds
	// across layers.
	if !errors.Is(err, calculus.ErrBudgetExceeded) {
		t.Errorf("query over budget: err = %v, want errors.Is calculus.ErrBudgetExceeded", err)
	}
}

func TestErrInternalFromEvaluatorPanic(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	db := openArticleDB(t)
	defer faultpoint.Arm("calculus/eval", faultpoint.Panic("kaboom"))()
	_, err := db.Query(`select t from my_article PATH_p.title(t)`)
	if !errors.Is(err, ErrInternal) {
		t.Errorf("query under panic: err = %v, want errors.Is ErrInternal", err)
	}
	if !errors.Is(err, calculus.ErrInternal) {
		t.Errorf("query under panic: err = %v, want errors.Is calculus.ErrInternal", err)
	}
}

// TestErrOverloadedQueueTimeoutBounded asserts both the sentinel and the
// bound: a shed query waits roughly the configured queue timeout — not
// forever, and not zero (it did queue).
func TestErrOverloadedQueueTimeoutBounded(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	const wait = 50 * time.Millisecond
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), WithMaxConcurrentQueries(1), WithQueueTimeout(wait))
	if err != nil {
		t.Fatal(err)
	}
	oid, err := db.LoadDocument(string(doc))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	defer faultpoint.Arm("calculus/eval", faultpoint.Once(func() error {
		close(entered)
		<-release
		return nil
	}))()
	defer close(release)
	holder := make(chan error, 1)
	go func() {
		_, err := db.Query(`select t from my_article PATH_p.title(t)`)
		holder <- err
	}()
	<-entered

	start := time.Now()
	_, err = db.Query(`select t from my_article PATH_p.title(t)`)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("queued query: err = %v, want errors.Is ErrOverloaded", err)
	}
	if elapsed < wait {
		t.Errorf("shed after %v, want >= %v (the query must queue first)", elapsed, wait)
	}
	if elapsed > 10*wait {
		t.Errorf("shed after %v, want well under %v (the timeout bounds the wait)", elapsed, 10*wait)
	}
}
