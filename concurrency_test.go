package sgmldb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sgmldb/internal/object"
)

// TestConcurrentQueryAndLoad exercises the single-writer/multi-reader
// contract: many goroutines query (plain, context-carrying and prepared)
// while one goroutine keeps loading documents and naming roots. Run under
// -race this validates the whole locking story, facade to algebra.
func TestConcurrentQueryAndLoad(t *testing.T) {
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), WithAlgebra(true))
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
	const q = `select t from my_article PATH_p.title(t)`
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}

	const readers, rounds = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < rounds; i++ {
				var got object.Value
				var err error
				switch i % 3 {
				case 0:
					got, err = db.Query(q)
				case 1:
					got, err = db.QueryContext(ctx, q)
				default:
					got, err = pq.Run(ctx)
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d round %d: %w", r, i, err)
					return
				}
				if got.(*object.Set).Len() < 3 {
					errc <- fmt.Errorf("reader %d round %d: titles = %s", r, i, got)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			oid, err := db.LoadDocument(string(doc))
			if err != nil {
				errc <- fmt.Errorf("writer round %d: %w", i, err)
				return
			}
			if err := db.Name(fmt.Sprintf("article_%d", i), oid); err != nil {
				errc <- fmt.Errorf("writer naming round %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestQueryContextCancel asserts that cancellation surfaces as
// context.Canceled from every context-aware entry point.
func TestQueryContextCancel(t *testing.T) {
	db := openArticleDB(t)
	const q = `select t from my_article PATH_p.title(t)`
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryContext on cancelled ctx: err = %v", err)
	}
	pq, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Prepared.Run on cancelled ctx: err = %v", err)
	}
	// Algebra mode observes cancellation inside plan scans too.
	db.Engine.UseAlgebra = true
	if _, err := db.QueryContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryContext (algebra) on cancelled ctx: err = %v", err)
	}
	// An un-cancelled context must not interfere.
	if _, err := db.QueryContext(context.Background(), q); err != nil {
		t.Errorf("QueryContext on live ctx: err = %v", err)
	}
}

// TestPrepare checks that a prepared query agrees with ad-hoc Query, both
// repeatedly and across a schema change (a document load adds persistence
// roots, which forces a transparent recompile).
func TestPrepare(t *testing.T) {
	for _, algebra := range []bool{false, true} {
		t.Run(fmt.Sprintf("algebra=%v", algebra), func(t *testing.T) {
			db := openArticleDB(t)
			db.Engine.UseAlgebra = algebra
			const q = `select t from my_article PATH_p.title(t)`
			pq, err := db.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if pq.Source() != q {
				t.Errorf("Source = %q", pq.Source())
			}
			want, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				got, err := pq.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if !object.Equal(got, want) {
					t.Fatalf("run %d: prepared = %s, want %s", i, got, want)
				}
			}
			// Schema change between runs: load and name another document.
			oid, err := db.LoadDocumentFile("testdata/article.sgml")
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Name("second_article", oid); err != nil {
				t.Fatal(err)
			}
			got, err := pq.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !object.Equal(got, want) {
				t.Fatalf("after load: prepared = %s, want %s", got, want)
			}
			// Bare expressions prepare and run too.
			bare, err := db.Prepare(`my_article.title`)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bare.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOpenOptions checks the functional options.
func TestOpenOptions(t *testing.T) {
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd),
		WithAlgebra(true), WithMaxBranches(512), WithWorkers(2), WithSkipTypecheck(true))
	if err != nil {
		t.Fatal(err)
	}
	if !db.Engine.UseAlgebra || db.Engine.MaxBranches != 512 ||
		db.Engine.Workers != 2 || !db.Engine.SkipTypecheck {
		t.Errorf("options not applied: %+v", db.Engine)
	}
}

// TestSentinelErrors checks that the facade's failure modes surface the
// typed sentinel errors.
func TestSentinelErrors(t *testing.T) {
	db := openArticleDB(t)
	if err := db.Name("ghost", object.OID(99999)); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("Name unknown oid: err = %v", err)
	}
}

// TestSnapshotIndexesSingularRoots: a document reachable only through a
// singular (single-oid) root keeps its full-text entry across an image
// round trip — the image carries the index, it is not rebuilt by walking
// the roots.
func TestSnapshotIndexesSingularRoots(t *testing.T) {
	db := openArticleDB(t)
	// Leave my_article as the only reference to the document: empty the
	// plural Articles root that LoadDocument populated.
	if err := db.Instance().SetRoot("Articles", object.NewList()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "singular.snap")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if docs := snap.Engine.State().Index.Docs(); len(docs) != 1 {
		t.Fatalf("snapshot index docs = %v, want the singular-root document", docs)
	}
	// The index serves as the contains access path for the document.
	got, err := snap.Query(`select a from a in Articles where a contains "SGML"`)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*object.Set).Len() != 0 {
		t.Errorf("Articles is empty, contains = %s", got)
	}
	root, ok := snap.Instance().Root("my_article")
	if !ok {
		t.Fatal("my_article root missing from snapshot")
	}
	if txt := snap.Text(root); txt == "" {
		t.Error("document text missing from snapshot")
	}
}

// TestWorkersDeterminism checks that parallel plan scans return the same
// answer as serial evaluation at every worker count.
func TestWorkersDeterminism(t *testing.T) {
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	var want object.Value
	for _, workers := range []int{1, 2, 8} {
		db, err := OpenDTD(string(dtd), WithAlgebra(true), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			oid, err := db.LoadDocument(string(doc))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := db.Name("my_article", oid); err != nil {
					t.Fatal(err)
				}
			}
		}
		got, err := db.Query(`select t from a in Articles, a PATH_p.title(t)`)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !object.Equal(got, want) {
			t.Errorf("workers=%d: %s, want %s", workers, got, want)
		}
	}
}
