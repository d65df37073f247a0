package sgmldb

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgmldb/internal/corpus"
	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
	"sgmldb/internal/wal"
)

// Every write reaches the database through one commit function: primary
// loads and namings, the recovery replay of a log tail, and a follower's
// apply of shipped records. These tests pin that the routes agree — one
// history rebuilt any way yields the same database, byte for byte — and
// that the commit path refuses a root binding outside the root's type.

// TestNameRejectsValueOutsideRootType binds existing roots to objects
// outside their declared types: the plural root Articles (a list of
// articles) to one article, and my_article (an Article root) to a
// section. Both must fail with ErrTypecheck before anything is staged or
// logged: same epoch, a clean Check, no new log record, and the next load
// still finds the whole document list.
func TestNameRejectsValueOutsideRootType(t *testing.T) {
	db := seedDurableDB(t, t.TempDir())
	article := loadedDocs(db)[0]
	sections := db.Instance().DirectExtent("Section")
	if len(sections) == 0 {
		t.Fatal("seed article has no sections")
	}
	for _, tc := range []struct {
		root string
		oid  object.OID
	}{
		{"Articles", article},
		{"my_article", sections[0]},
	} {
		epoch := db.Epoch()
		seq, err := db.FeedSeq()
		if err != nil {
			t.Fatal(err)
		}
		err = db.Name(tc.root, tc.oid)
		if !errors.Is(err, ErrTypecheck) {
			t.Fatalf("Name(%s, %s): err = %v, want ErrTypecheck", tc.root, tc.oid, err)
		}
		if got := db.Epoch(); got != epoch {
			t.Errorf("Name(%s, %s): epoch %d, want %d (unchanged)", tc.root, tc.oid, got, epoch)
		}
		if errs := db.Check(); len(errs) != 0 {
			t.Errorf("Name(%s, %s): Check = %v", tc.root, tc.oid, errs)
		}
		if got, _ := db.FeedSeq(); got != seq {
			t.Errorf("Name(%s, %s): log at %d, want %d (nothing logged)", tc.root, tc.oid, got, seq)
		}
	}
	got, err := db.Query(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(`select t from a in Articles, a PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(got, want) {
		t.Errorf("my_article titles = %v, want the article's own %v", got, want)
	}
	if _, err := db.LoadDocument(articleSrc(t)); err != nil {
		t.Fatal(err)
	}
	if got := len(loadedDocs(db)); got != 2 {
		t.Errorf("documents after the next load = %d, want 2", got)
	}
}

// historyImage is what two rebuilds of one history must agree on: the
// epoch, every root binding, the encoded full-text index and the whole
// checkpoint image (sequence and term normalised — an ephemeral follower
// has neither).
type historyImage struct {
	epoch uint64
	roots map[string]string
	index []byte
	image []byte
}

func imageOf(t *testing.T, db *Database) historyImage {
	t.Helper()
	db.loadMu.Lock()
	st := db.state()
	ck := db.captureCheckpoint(st.Snap.Inst, st.Index)
	db.loadMu.Unlock()
	ck.Seq, ck.Term = 0, 0
	h := historyImage{epoch: st.Snap.Epoch, roots: map[string]string{}}
	for _, g := range st.Snap.Inst.Schema().Roots() {
		if v, ok := st.Snap.Inst.Root(g); ok {
			h.roots[g] = v.String()
		}
	}
	var ix, img bytes.Buffer
	if err := st.Index.Encode(&ix); err != nil {
		t.Fatal(err)
	}
	if err := wal.EncodeCheckpoint(&img, ck); err != nil {
		t.Fatal(err)
	}
	h.index, h.image = ix.Bytes(), img.Bytes()
	return h
}

func sameHistory(t *testing.T, route string, got, want historyImage) {
	t.Helper()
	if got.epoch != want.epoch {
		t.Errorf("%s: epoch %d, want %d", route, got.epoch, want.epoch)
	}
	if len(got.roots) != len(want.roots) {
		t.Errorf("%s: roots %v, want %v", route, got.roots, want.roots)
	}
	for g, v := range want.roots {
		if got.roots[g] != v {
			t.Errorf("%s: root %s = %s, want %s", route, g, got.roots[g], v)
		}
	}
	if !bytes.Equal(got.index, want.index) {
		t.Errorf("%s: encoded index differs (%d bytes, want %d)", route, len(got.index), len(want.index))
	}
	if !bytes.Equal(got.image, want.image) {
		t.Errorf("%s: checkpoint image differs (%d bytes, want %d)", route, len(got.image), len(want.image))
	}
}

// shipAll applies every record of p's log past f's applied position to f,
// decoding the feed frames as the follower client does.
func shipAll(t *testing.T, p, f *Database) {
	t.Helper()
	last, err := p.FeedSeq()
	if err != nil {
		t.Fatal(err)
	}
	for f.AppliedSeq() < last {
		frames, _, err := p.FeedFrames(f.AppliedSeq(), 0, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for len(frames) > 0 {
			rec, n, err := wal.DecodeFrame(frames)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.ApplyRecord(rec); err != nil {
				t.Fatalf("apply record %d: %v", rec.Seq, err)
			}
			frames = frames[n:]
		}
	}
}

// TestCommitHistoryEveryRoute runs one write history on a durable primary
// — two batches, a batch that fails at its last staging step, a new root,
// a rebinding of that root, one more batch — and rebuilds it four ways:
// a reopen replaying the log tail only, a reopen from a mid-history
// checkpoint plus the tail past it, an ephemeral follower and a durable
// follower (closed and reopened) applying the shipped records. Every
// rebuild must match the primary exactly.
func TestCommitHistoryEveryRoute(t *testing.T) {
	t.Cleanup(faultpoint.DisarmAll)
	dtd := corpus.ArticleDTD
	gen := corpus.NewGenerator(corpus.Params{Seed: 14, Sections: 2})
	dir := t.TempDir()
	p, err := OpenDTD(dtd, WithDataDir(dir), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	load := func(ids ...int) []object.OID {
		t.Helper()
		srcs := make([]string, len(ids))
		for i, id := range ids {
			srcs[i] = gen.Article(id)
		}
		oids, err := p.LoadDocuments(srcs)
		if err != nil {
			t.Fatal(err)
		}
		return oids
	}
	first := load(0, 1)
	second := load(2)
	disarm := faultpoint.Arm("dtdmap/set-root", faultpoint.Error(errBoom))
	if _, err := p.LoadDocuments([]string{gen.Article(3), gen.Article(4)}); !errors.Is(err, errBoom) {
		t.Fatalf("failing batch: err = %v, want errBoom", err)
	}
	disarm()
	if err := p.Name("featured", first[1]); err != nil {
		t.Fatal(err)
	}
	// The mid-history checkpoint: written beside the full log (as a crash
	// between checkpoint rename and prefix truncation leaves it), so the
	// reopen below recovers from it plus the records past it.
	p.loadMu.Lock()
	st := p.state()
	mid := p.captureCheckpoint(st.Snap.Inst, st.Index)
	p.loadMu.Unlock()
	if err := p.Name("featured", second[0]); err != nil {
		t.Fatal(err)
	}
	load(5, 6)
	want := imageOf(t, p)

	tailDir, ckDir := t.TempDir(), t.TempDir()
	for _, d := range []string{tailDir, ckDir} {
		if err := copyDirFiles(dir, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.WriteCheckpoint(ckDir, mid); err != nil {
		t.Fatal(err)
	}
	sameHistory(t, "log tail reopen", imageOf(t, reopenWith(t, dtd, tailDir)), want)
	ckdb := reopenWith(t, dtd, ckDir)
	if rep, err := ckdb.Scrub(); err != nil || rep.CheckpointSeq != mid.Seq {
		t.Fatalf("checkpoint reopen: scrub = %+v, %v; want the checkpoint at %d", rep, err, mid.Seq)
	}
	sameHistory(t, "checkpoint+tail reopen", imageOf(t, ckdb), want)

	eph, err := OpenFollower(dtd)
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, eph)
	sameHistory(t, "ephemeral follower", imageOf(t, eph), want)

	fdir := t.TempDir()
	fdb, err := OpenFollower(dtd, WithDataDir(fdir))
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, p, fdb)
	sameHistory(t, "durable follower", imageOf(t, fdb), want)
	if err := fdb.Close(); err != nil {
		t.Fatal(err)
	}
	fdb, err = OpenFollower(dtd, WithDataDir(fdir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fdb.Close() })
	sameHistory(t, "durable follower reopened", imageOf(t, fdb), want)
}

// reopenWith recovers a data directory (manual checkpoints only).
func reopenWith(t *testing.T, dtd, dir string) *Database {
	t.Helper()
	db, err := OpenDTD(dtd, WithDataDir(dir), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatalf("reopen %s: %v", filepath.Base(dir), err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// FuzzApplyRecord feeds shipped records built from fuzzed fields to a
// follower — shipped records are network input. A Load record carries
// the NUL-separated documents of docs; a Name record binds name to oid.
// Whatever the record, applying it must not panic (a contained panic,
// ErrInternal, counts as one); a refused record must leave the epoch,
// the applied position and the published state exactly as they were; an
// applied one must leave an instance that passes Check.
func FuzzApplyRecord(f *testing.F) {
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		f.Fatal(err)
	}
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		f.Fatal(err)
	}
	base := fuzzFollower(f, string(dtd), string(src))
	article := loadedDocs(base)[0]
	section := base.Instance().DirectExtent("Section")[0]
	f.Add(false, "", "Articles", uint64(article))
	f.Add(false, "", "my_article", uint64(section))
	f.Add(false, "", "featured", uint64(section))
	f.Add(false, "", "my_article", uint64(1<<40))
	f.Add(true, string(src), "", uint64(0))
	f.Add(true, string(src)+"\x00"+string(src), "", uint64(0))
	f.Add(true, "<article><title>t</article>", "", uint64(0))
	f.Add(true, "", "", uint64(0))
	f.Fuzz(func(t *testing.T, isLoad bool, docs, name string, oid uint64) {
		db := fuzzFollower(t, string(dtd), string(src))
		rec := wal.Record{Kind: wal.KindName, Seq: db.AppliedSeq() + 1, Term: 1, Name: name, OID: oid}
		if isLoad {
			rec = wal.Record{Kind: wal.KindLoad, Seq: db.AppliedSeq() + 1, Term: 1, Docs: splitDocs(docs)}
		}
		before, applied := db.state(), db.AppliedSeq()
		err := db.ApplyRecord(rec)
		if errors.Is(err, ErrInternal) {
			t.Fatalf("apply %+v: contained panic: %v", rec, err)
		}
		if err != nil {
			after := db.state()
			if after.Snap != before.Snap || after.Index != before.Index || db.AppliedSeq() != applied {
				t.Fatalf("refused record %+v changed the follower: %v", rec, err)
			}
			return
		}
		if errs := db.Check(); len(errs) != 0 {
			t.Fatalf("applied record %+v leaves Check = %v", rec, errs)
		}
	})
}

// fuzzFollower opens an ephemeral follower holding the schema record, one
// loaded article and the root my_article bound to it.
func fuzzFollower(tb testing.TB, dtd, article string) *Database {
	tb.Helper()
	db, err := OpenFollower(dtd)
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range []wal.Record{
		{Kind: wal.KindSchema, Seq: 1, Term: 1, Schema: dtd},
		{Kind: wal.KindLoad, Seq: 2, Term: 1, Docs: []string{article}},
	} {
		if err := db.ApplyRecord(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.ApplyRecord(wal.Record{Kind: wal.KindName, Seq: 3, Term: 1, Name: "my_article", OID: uint64(loadedDocs(db)[0])}); err != nil {
		tb.Fatal(err)
	}
	return db
}

// splitDocs cuts a fuzzed string into a batch of document sources; the
// empty string is the empty batch.
func splitDocs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "\x00")
}
