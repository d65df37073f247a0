package sgmldb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
)

// The chaos suite (make chaos runs it under -race) injects faults at the
// named faultpoint sites and asserts the robustness contract of
// DESIGN.md §7: a failed or panicking load never publishes (epoch, root
// bindings and index version are exactly what they were, and nothing
// staged leaks into the next successful load), a query over budget fails
// alone, and a panicking evaluation surfaces as ErrInternal while the
// database keeps serving.

var errBoom = errors.New("boom (injected)")

// openChaosDB opens an article database with the given options, loads
// one document, names it my_article, and registers faultpoint hygiene.
func openChaosDB(t *testing.T, opts ...Option) *Database {
	t.Helper()
	t.Cleanup(faultpoint.DisarmAll)
	dtd, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDTD(string(dtd), opts...)
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
	return db
}

func articleSrc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

const chaosQuery = `select t from my_article PATH_p.title(t)`

// mustQuery runs a query that must succeed and return a non-empty set.
func mustQuery(t *testing.T, db *Database, q string) *object.Set {
	t.Helper()
	v, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	s, ok := v.(*object.Set)
	if !ok || s.Len() == 0 {
		t.Fatalf("query %q = %v, want non-empty set", q, v)
	}
	return s
}

// TestChaosSitesEnumerated pins the set of injection sites: adding a
// faultpoint without extending the chaos suite (or removing one a test
// still arms) fails here first.
func TestChaosSitesEnumerated(t *testing.T) {
	want := []string{
		"algebra/plan-run",
		"calculus/eval",
		"dtdmap/load-doc",
		"dtdmap/set-root",
		"oql/plan-recompile",
		"service/feed-stream",
		"service/follower-apply",
		"text/index-add",
		"text/index-clone",
		"wal/append",
		"wal/append-sync-error",
		"wal/checkpoint-rename",
		"wal/checkpoint-write",
		"wal/ckpt-write",
		"wal/dir-sync",
		"wal/post-append",
		"wal/post-fsync",
		"wal/rewind-truncate",
		"wal/truncate-reopen",
	}
	if got := faultpoint.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("faultpoint.Names() = %v, want %v", got, want)
	}
}

// loadFaultCases enumerates the staging-path sites together with how
// their injected failure surfaces: an error return from the loader, or a
// panic (sites without an error return) contained as ErrInternal.
// Per-document sites fail on the second hit, so the batch dies with one
// document already staged; per-batch sites are hit once and fail there.
var loadFaultCases = []struct {
	site     string
	perDoc   bool
	asPanics bool
}{
	{"dtdmap/load-doc", true, false},
	{"dtdmap/set-root", false, false},
	{"text/index-clone", false, true},
	{"text/index-add", true, true},
}

// TestChaosFailedLoadPublishesNothing injects a failure at every staging
// site — including mid-batch, after a document has already been staged —
// and asserts the published state is untouched: same epoch, same index
// version, same query answers, and no staged object leaking into the
// next (successful) load.
func TestChaosFailedLoadPublishesNothing(t *testing.T) {
	for _, tc := range loadFaultCases {
		t.Run(tc.site, func(t *testing.T) {
			db := openChaosDB(t)
			src := articleSrc(t)
			epoch0 := db.Epoch()
			index0 := db.state().Index
			docs0 := len(db.Loader.Documents())
			titles0 := mustQuery(t, db, chaosQuery).Len()

			inject := faultpoint.Error(errBoom)
			if tc.perDoc {
				// After(1): the first hit passes, so the batch fails with
				// one document already staged.
				inject = faultpoint.After(1, inject)
			}
			disarm := faultpoint.Arm(tc.site, inject)
			_, err := db.LoadDocuments([]string{src, src})
			disarm()
			if err == nil {
				t.Fatalf("LoadDocuments with %s armed: err = nil", tc.site)
			}
			if tc.asPanics {
				if !errors.Is(err, ErrInternal) {
					t.Errorf("err = %v, want errors.Is ErrInternal (panic containment)", err)
				}
			} else if !errors.Is(err, errBoom) {
				t.Errorf("err = %v, want errors.Is errBoom", err)
			}

			if got := db.Epoch(); got != epoch0 {
				t.Errorf("epoch after failed load = %d, want %d (unchanged)", got, epoch0)
			}
			if got := db.state().Index; got != index0 {
				t.Errorf("index version changed by a failed load")
			}
			if got := len(db.Loader.Documents()); got != docs0 {
				t.Errorf("loader documents after failed load = %d, want %d (rollback)", got, docs0)
			}
			if got := mustQuery(t, db, chaosQuery).Len(); got != titles0 {
				t.Errorf("titles after failed load = %d, want %d", got, titles0)
			}

			// The next load must succeed and contain exactly its own batch:
			// nothing from the failed one leaks through.
			oids, err := db.LoadDocuments([]string{src, src})
			if err != nil {
				t.Fatalf("LoadDocuments after disarm: %v", err)
			}
			if len(oids) != 2 {
				t.Fatalf("oids = %v, want 2", oids)
			}
			if got := len(db.Loader.Documents()); got != docs0+2 {
				t.Errorf("loader documents after recovery load = %d, want %d", got, docs0+2)
			}
			if got := db.Epoch(); got != epoch0+1 {
				t.Errorf("epoch after recovery load = %d, want %d", got, epoch0+1)
			}
		})
	}
}

// TestChaosReadersServeAcrossFailedLoad holds a load open mid-batch
// (first document staged, fault pending) and asserts concurrent readers
// keep answering from the old snapshot, before letting the load fail and
// checking nothing was published.
func TestChaosReadersServeAcrossFailedLoad(t *testing.T) {
	db := openChaosDB(t, WithAlgebra(true))
	src := articleSrc(t)
	epoch0 := db.Epoch()
	titles0 := mustQuery(t, db, chaosQuery).Len()

	entered := make(chan struct{})
	release := make(chan struct{})
	defer faultpoint.Arm("dtdmap/load-doc", faultpoint.After(1, func() error {
		close(entered)
		<-release
		return errBoom
	}))()

	loadErr := make(chan error, 1)
	go func() {
		_, err := db.LoadDocuments([]string{src, src})
		loadErr <- err
	}()

	<-entered // the load is mid-batch: one document staged, writer lock held
	for i := 0; i < 4; i++ {
		if got := mustQuery(t, db, chaosQuery).Len(); got != titles0 {
			t.Errorf("mid-load query %d: titles = %d, want %d", i, got, titles0)
		}
	}
	if got := db.Epoch(); got != epoch0 {
		t.Errorf("epoch mid-load = %d, want %d", got, epoch0)
	}
	close(release)
	if err := <-loadErr; !errors.Is(err, errBoom) {
		t.Errorf("load err = %v, want errBoom", err)
	}
	if got := db.Epoch(); got != epoch0 {
		t.Errorf("epoch after failed load = %d, want %d", got, epoch0)
	}
	if got := mustQuery(t, db, chaosQuery).Len(); got != titles0 {
		t.Errorf("titles after failed load = %d, want %d", got, titles0)
	}
}

// TestChaosEvaluatorPanicContained panics inside both evaluators and
// asserts the query fails with ErrInternal while the database keeps
// serving — including the prepared-statement entry points.
func TestChaosEvaluatorPanicContained(t *testing.T) {
	cases := []struct {
		name string
		site string
		opts []Option
	}{
		{"naive", "calculus/eval", nil},
		{"algebra", "algebra/plan-run", []Option{WithAlgebra(true)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := openChaosDB(t, tc.opts...)
			pq, err := db.Prepare(chaosQuery)
			if err != nil {
				t.Fatal(err)
			}
			disarm := faultpoint.Arm(tc.site, faultpoint.Panic("injected evaluator panic"))
			if _, err := db.Query(chaosQuery); !errors.Is(err, ErrInternal) {
				t.Errorf("Query under panic: err = %v, want errors.Is ErrInternal", err)
			}
			if _, err := db.QueryContext(context.Background(), chaosQuery, QMaxRows(1<<20)); !errors.Is(err, ErrInternal) {
				t.Errorf("QueryContext under panic: err = %v, want errors.Is ErrInternal", err)
			}
			if _, err := pq.Run(context.Background()); !errors.Is(err, ErrInternal) {
				t.Errorf("Prepared.Run under panic: err = %v, want errors.Is ErrInternal", err)
			}
			disarm()
			// The database kept serving: same query, clean answer.
			mustQuery(t, db, chaosQuery)
			if _, err := pq.Run(context.Background()); err != nil {
				t.Errorf("Prepared.Run after disarm: %v", err)
			}
		})
	}
}

// TestChaosRecompileFaultIsTransient fails one plan compilation (the
// path every cached plan takes after a schema change) and asserts the
// failure is per-query: the next attempt compiles and answers.
func TestChaosRecompileFaultIsTransient(t *testing.T) {
	db := openChaosDB(t, WithAlgebra(true))
	defer faultpoint.Arm("oql/plan-recompile", faultpoint.Once(faultpoint.Error(errBoom)))()
	if _, err := db.Query(chaosQuery); !errors.Is(err, errBoom) {
		t.Fatalf("query with recompile fault: err = %v, want errBoom", err)
	}
	mustQuery(t, db, chaosQuery) // transient: the retry compiles and serves
}

// TestChaosBudgetTripsAlone gives the database a memory budget that an
// Articles scan blows but a single-document query fits, and asserts the
// expensive query fails with ErrBudgetExceeded — concurrently with cheap
// queries that all succeed, since every execution meters independently.
func TestChaosBudgetTripsAlone(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"naive", []Option{WithMaxMemory(8192)}},
		{"algebra", []Option{WithAlgebra(true), WithMaxMemory(8192)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := openChaosDB(t, mode.opts...)
			src := articleSrc(t)
			batch := make([]string, 8)
			for i := range batch {
				batch[i] = src
			}
			if _, err := db.LoadDocuments(batch); err != nil {
				t.Fatal(err)
			}
			const expensive = `select t from a in Articles, b in Articles, a PATH_p.title(t)`
			var wg sync.WaitGroup
			errc := make(chan error, 8)
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := db.Query(chaosQuery); err != nil {
						errc <- fmt.Errorf("cheap query: %w", err)
					}
				}()
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := db.Query(expensive); !errors.Is(err, ErrBudgetExceeded) {
						errc <- fmt.Errorf("expensive query: err = %w, want ErrBudgetExceeded", err)
					}
				}()
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestChaosQueryTimeoutTrips asserts the wall-clock budget axis: an
// (already expired) per-query deadline fails evaluation at its first
// poll with ErrBudgetExceeded, on both evaluators, and only while
// configured.
func TestChaosQueryTimeoutTrips(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"naive", []Option{WithQueryTimeout(time.Nanosecond)}},
		{"algebra", []Option{WithAlgebra(true), WithQueryTimeout(time.Nanosecond)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			db := openChaosDB(t, mode.opts...)
			if _, err := db.Query(chaosQuery); !errors.Is(err, ErrBudgetExceeded) {
				t.Errorf("query under 1ns budget: err = %v, want errors.Is ErrBudgetExceeded", err)
			}
			// The same database without the budget (fresh open) answers.
			clean := openChaosDB(t)
			mustQuery(t, clean, chaosQuery)
		})
	}
}

// TestChaosAdmissionShedsAndRecovers fills the single admission slot
// with a query parked inside the evaluator, asserts a second query is
// shed with ErrOverloaded after the queue timeout (and with the caller's
// context error when that fires first), then releases the slot and
// checks the gate serves again.
func TestChaosAdmissionShedsAndRecovers(t *testing.T) {
	db := openChaosDB(t, WithMaxConcurrentQueries(1), WithQueueTimeout(25*time.Millisecond))
	entered := make(chan struct{})
	release := make(chan struct{})
	defer faultpoint.Arm("calculus/eval", faultpoint.Once(func() error {
		close(entered)
		<-release
		return nil
	}))()

	done := make(chan error, 1)
	go func() {
		_, err := db.Query(chaosQuery)
		done <- err
	}()
	<-entered // the slot-holder is parked inside Eval

	if _, err := db.Query(chaosQuery); !errors.Is(err, ErrOverloaded) {
		t.Errorf("second query: err = %v, want errors.Is ErrOverloaded", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, chaosQuery); !errors.Is(err, context.Canceled) {
		t.Errorf("queued query with cancelled ctx: err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("slot-holding query: %v", err)
	}
	mustQuery(t, db, chaosQuery) // the slot is free again
}
