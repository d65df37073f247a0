package sgmldb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sgmldb/internal/faultpoint"
)

// The crash-recovery chaos suite (make crash runs it under -race). Each
// test arms a faultpoint on the durable commit path with an injector that
// *photographs the data directory at the seam* — exactly the bytes a
// process killed at that instant would leave behind — and then fails the
// operation. Reopening the photograph as a fresh process recovers; the
// suite asserts recovery always lands on the pre-operation or
// post-operation durable state, never a hybrid, and that the pinned
// reference query answers identically to the corresponding pre-crash
// snapshot.

// copyDirFiles snapshots every regular file in src into dst.
func copyDirFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// crashAt returns an injector that snapshots dir into img and then fails
// with errBoom — the moment of the simulated kill.
func crashAt(dir, img string) func() error {
	return func() error {
		if err := copyDirFiles(dir, img); err != nil {
			return fmt.Errorf("crash snapshot: %w", err)
		}
		return errBoom
	}
}

// seedDurableDB opens a durable database in dir, loads one article and
// names it my_article — the pre-crash baseline every test starts from.
// Automatic checkpointing is disabled so tests control the checkpoint
// timing themselves.
func seedDurableDB(t *testing.T, dir string, opts ...Option) *Database {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]Option{WithDataDir(dir), WithCheckpointEvery(-1)}, opts...)
	db, err := OpenDTD(string(dtd), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	oid, err := db.LoadDocumentFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		t.Fatal(err)
	}
	return db
}

// reopenDurable recovers a data directory as a fresh process would.
func reopenDurable(t *testing.T, dir string) *Database {
	t.Helper()
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), WithDataDir(dir), WithCheckpointEvery(-1))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// articleCount counts loaded articles through the reference query path.
func articleCount(t *testing.T, db *Database) int {
	t.Helper()
	return mustQuery(t, db, `select t from a in Articles, a PATH_p.title(t)`).Len()
}

// TestCrashCommitSeams kills the load commit path at every WAL seam and
// asserts the recovered state is exactly pre-load or post-load — and
// which one is determined by durability: before the record is written the
// batch must be lost, after the fsync it must survive.
func TestCrashCommitSeams(t *testing.T) {
	seams := []struct {
		site    string
		durable bool // the crash image holds the full record
	}{
		{"wal/append", false},
		{"wal/post-append", true}, // written in the image; real page-cache loss is the torn-tail test
		{"wal/post-fsync", true},
	}
	for _, seam := range seams {
		t.Run(seam.site, func(t *testing.T) {
			dir := t.TempDir()
			db := seedDurableDB(t, dir)
			src := articleSrc(t)
			epochPre := db.Epoch()
			countPre := articleCount(t, db)
			titlesPre := mustQuery(t, db, chaosQuery).Len()

			img := t.TempDir()
			disarm := faultpoint.Arm(seam.site, crashAt(dir, img))
			_, err := db.LoadDocuments([]string{src})
			disarm()
			if !errors.Is(err, errBoom) {
				t.Fatalf("load at %s: err = %v, want errBoom", seam.site, err)
			}
			// The live process rolled back and keeps serving the pre-load
			// state.
			if got := db.Epoch(); got != epochPre {
				t.Errorf("live epoch after failed load = %d, want %d", got, epochPre)
			}
			if got := articleCount(t, db); got != countPre {
				t.Errorf("live articles after failed load = %d, want %d", got, countPre)
			}

			// Recover the crash image as a fresh process.
			rdb := reopenDurable(t, img)
			epoch := rdb.Epoch()
			if epoch != epochPre && epoch != epochPre+1 {
				t.Fatalf("recovered epoch = %d, want %d (pre) or %d (post), never a hybrid", epoch, epochPre, epochPre+1)
			}
			wantPost := seam.durable
			if gotPost := epoch == epochPre+1; gotPost != wantPost {
				t.Errorf("recovered epoch = %d; batch durable = %v, want %v", epoch, gotPost, wantPost)
			}
			// Every loaded document is the same article, so the reference
			// count scales with the document count: 1 pre-crash document,
			// plus the batch if it was durable.
			wantDocs := 1
			if wantPost {
				wantDocs = 2
			}
			if got := len(loadedDocs(rdb)); got != wantDocs {
				t.Errorf("recovered documents = %d, want %d", got, wantDocs)
			}
			if got := articleCount(t, rdb); got != countPre*wantDocs {
				t.Errorf("recovered articles = %d, want %d", got, countPre*wantDocs)
			}
			// The pinned reference query answers identically to the
			// pre-crash snapshot (the extra batch adds articles, not titles
			// under my_article).
			if got := mustQuery(t, rdb, chaosQuery).Len(); got != titlesPre {
				t.Errorf("recovered reference query = %d titles, want %d", got, titlesPre)
			}
		})
	}
}

// TestCrashTornTail cuts the recovered log at every byte offset inside
// its final record: recovery must silently truncate the torn record and
// serve the pre-batch state — the page-cache-loss counterpart of the
// post-append seam.
func TestCrashTornTail(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	epochPre := db.Epoch()
	countPre := articleCount(t, db)
	logBefore, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	logAfter, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logAfter) <= len(logBefore) {
		t.Fatal("load appended nothing")
	}
	// Sample cut points across the appended record (every offset is
	// covered at the wal layer; here a spread proves the facade path).
	for cut := len(logBefore) + 1; cut < len(logAfter); cut += 7 {
		img := t.TempDir()
		if err := copyDirFiles(dir, img); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, "wal.log"), logAfter[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rdb := reopenDurable(t, img)
		if got := rdb.Epoch(); got != epochPre {
			t.Fatalf("cut=%d: recovered epoch = %d, want %d (torn batch dropped)", cut, got, epochPre)
		}
		if got := articleCount(t, rdb); got != countPre {
			t.Fatalf("cut=%d: recovered articles = %d, want %d", cut, got, countPre)
		}
		rdb.Close()
	}
}

// TestCrashCheckpointSeams kills the checkpointer mid-write and
// pre-rename: either way the checkpoint must simply not exist yet, and
// recovery must reproduce the exact pre-crash state from the log (or the
// previous checkpoint). The leftover temp file must not confuse — or
// outlive — the next successful checkpoint.
func TestCrashCheckpointSeams(t *testing.T) {
	for _, site := range []string{"wal/checkpoint-write", "wal/checkpoint-rename"} {
		t.Run(site, func(t *testing.T) {
			dir := t.TempDir()
			db := seedDurableDB(t, dir)
			src := articleSrc(t)
			if _, err := db.LoadDocuments([]string{src, src}); err != nil {
				t.Fatal(err)
			}
			epochPre := db.Epoch()
			countPre := articleCount(t, db)

			img := t.TempDir()
			disarm := faultpoint.Arm(site, crashAt(dir, img))
			err := db.Checkpoint()
			disarm()
			if !errors.Is(err, errBoom) {
				t.Fatalf("checkpoint at %s: err = %v, want errBoom", site, err)
			}

			rdb := reopenDurable(t, img)
			if got := rdb.Epoch(); got != epochPre {
				t.Errorf("recovered epoch = %d, want %d", got, epochPre)
			}
			if got := articleCount(t, rdb); got != countPre {
				t.Errorf("recovered articles = %d, want %d", got, countPre)
			}
			mustQuery(t, rdb, chaosQuery)

			// The recovered database can checkpoint cleanly, and doing so
			// clears any leftover temp file from the crashed attempt.
			if err := rdb.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
			entries, err := os.ReadDir(img)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if len(e.Name()) >= 14 && e.Name()[:14] == "checkpoint.tmp" {
					t.Errorf("stale checkpoint temp file survived: %s", e.Name())
				}
			}
		})
	}
}

// TestCrashCorruptLogSurfaces damages a non-tail record and asserts the
// facade refuses to open with ErrCorruptLog (via the public alias).
func TestCrashCorruptLogSurfaces(t *testing.T) {
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
	// Flip a byte in the first record's payload (13-byte magic + 8-byte
	// frame header, then payload) — well before the tail.
	data[13+8+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenDTD(string(dtd), WithDataDir(dir))
	if !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("open on mid-log corruption: err = %v, want errors.Is(err, ErrCorruptLog)", err)
	}
}

// TestCrashReadersServeDuringWedgedDurableLoad parks a durable load at
// the post-append seam (record written, publish pending) and asserts
// concurrent readers keep answering from the published snapshot — the
// durability machinery lives entirely on the writer path.
func TestCrashReadersServeDuringWedgedDurableLoad(t *testing.T) {
	dir := t.TempDir()
	db := seedDurableDB(t, dir)
	src := articleSrc(t)
	epoch0 := db.Epoch()
	titles0 := mustQuery(t, db, chaosQuery).Len()

	entered := make(chan struct{})
	release := make(chan struct{})
	disarm := faultpoint.Arm("wal/post-append", faultpoint.Once(func() error {
		close(entered)
		<-release
		return errBoom
	}))
	defer disarm()

	loadErr := make(chan error, 1)
	go func() {
		_, err := db.LoadDocuments([]string{src})
		loadErr <- err
	}()
	<-entered // the writer is wedged mid-commit, record written
	for i := 0; i < 4; i++ {
		if got := mustQuery(t, db, chaosQuery).Len(); got != titles0 {
			t.Errorf("query %d during wedged load: %d titles, want %d", i, got, titles0)
		}
	}
	if got := db.Epoch(); got != epoch0 {
		t.Errorf("epoch during wedged load = %d, want %d", got, epoch0)
	}
	close(release)
	if err := <-loadErr; !errors.Is(err, errBoom) {
		t.Errorf("wedged load err = %v, want errBoom", err)
	}
	disarm()
	// The failed durable load rolled back everything, including the log:
	// the next load and a reopen both see a consistent history.
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatalf("load after wedge: %v", err)
	}
	epochEnd := db.Epoch()
	countEnd := articleCount(t, db)
	db.Close()
	rdb := reopenDurable(t, dir)
	if got := rdb.Epoch(); got != epochEnd {
		t.Errorf("recovered epoch = %d, want %d", got, epochEnd)
	}
	if got := articleCount(t, rdb); got != countEnd {
		t.Errorf("recovered articles = %d, want %d", got, countEnd)
	}
}

// TestCrashFailedLoadsDontGrowLayerDepth is the regression test for the
// eager-discard fix: repeated failed loads must not grow the published
// instance's copy-on-write depth, and the database must stay on the
// published layer (not an abandoned staged one) after every failure.
func TestCrashFailedLoadsDontGrowLayerDepth(t *testing.T) {
	db := openChaosDB(t)
	src := articleSrc(t)
	published := db.Instance()
	depth0 := published.Depth()
	defer faultpoint.Arm("dtdmap/set-root", faultpoint.Error(errBoom))()
	for i := 0; i < 20; i++ {
		if _, err := db.LoadDocuments([]string{src}); !errors.Is(err, errBoom) {
			t.Fatalf("load %d: err = %v, want errBoom", i, err)
		}
		if db.Instance() != published {
			t.Fatalf("load %d: database left on an abandoned staged layer", i)
		}
		if got := db.Instance().Depth(); got != depth0 {
			t.Fatalf("load %d: depth = %d, want %d (no growth across failed loads)", i, got, depth0)
		}
	}
	faultpoint.DisarmAll()
	if _, err := db.LoadDocuments([]string{src}); err != nil {
		t.Fatalf("load after disarm: %v", err)
	}
}
