// Package sgmldb is a from-scratch Go implementation of "From Structured
// Documents to Novel Query Facilities" (Christophides, Abiteboul, Cluet,
// Scholl — SIGMOD 1994): SGML documents mapped into an object database
// with an extended O₂ data model (ordered tuples, marked unions), queried
// through an extended O₂SQL with paths as first-class citizens, and
// evaluated through the many-sorted calculus of the paper and its
// algebraization.
//
// The typical flow:
//
//	db, _ := sgmldb.OpenDTD(dtdSource)            // Figure 1 → Figure 3
//	oid, _ := db.LoadDocument(articleSource)      // Figure 2 → objects
//	db.Name("my_article", oid)                    // a root of persistence
//	res, _ := db.Query(`select t from my_article PATH_p.title(t)`)
//
// Everything is stdlib-only and in-memory. Save writes the database as
// one self-contained image (instance, full-text index and DTD) that
// OpenSnapshot reopens as an ordinary in-memory database; WithDataDir
// makes a database durable through a write-ahead log whose checkpoints
// are the same image.
//
// # Concurrency
//
// A Database serves queries and loads concurrently through epoch-based
// copy-on-write snapshots. Writers (LoadDocument, LoadDocuments, Name)
// serialise among themselves on an internal mutex and build each change
// into a private copy-on-write layer over the published instance — plus a
// lazily-copied clone of the full-text index — publishing the new
// (instance, index) pair with one atomic pointer swap only when the whole
// change succeeded. A failed load is discarded wholesale: the published
// instance is never touched, so no orphan objects can appear (load
// atomicity by construction).
//
// Readers (Query, QueryContext, prepared Run, Text, Check, Stats, Export)
// pin the snapshot current at their start and never block on writers — a
// query and a load overlap freely, with the query answering against the
// consistent pre-load state. Published snapshots are immutable, so the
// hot evaluation path pays no per-object synchronisation. Query
// evaluation itself can additionally use multiple goroutines per query
// (see WithWorkers) and is cancellable through QueryContext.
//
// # Robustness
//
// A Database governs its resources and contains its failures.
// WithMaxConcurrentQueries admits a bounded number of queries and sheds
// the excess with ErrOverloaded after WithQueueTimeout. WithMaxRows,
// WithMaxMemory and WithQueryTimeout bound what one admitted query may
// cost; a query over budget fails alone with ErrBudgetExceeded. A panic
// during evaluation is contained at the API boundary as ErrInternal, and
// a failure (or panic) anywhere in a load is rolled back before anything
// is published — so under misbehaving queries and failing loads alike,
// the database keeps answering from its last good snapshot. DESIGN.md §7
// describes the model; the chaos tests (make chaos) exercise it through
// injected faults.
package sgmldb

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sgmldb/internal/calculus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/object"
	"sgmldb/internal/oql"
	"sgmldb/internal/sgml"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// Database bundles a mapped schema, its instance, the query engine and
// the full-text index.
type Database struct {
	Mapping *dtdmap.Mapping
	Loader  *dtdmap.Loader
	Engine  *oql.Engine

	// loadMu serialises writers (loads and root naming). Readers never
	// take it: they pin the engine's published snapshot instead.
	loadMu sync.Mutex

	// gate is the admission-control semaphore (nil = unlimited): a query
	// holds one slot for its whole evaluation, excess queries queue on the
	// channel and are shed with ErrOverloaded after queueTimeout. See
	// WithMaxConcurrentQueries.
	gate         chan struct{}
	queueTimeout time.Duration

	// metrics are the cumulative serving counters reported by Stats.
	metrics metrics

	// Durability (nil/zero without WithDataDir; see durable.go). The
	// query path never touches these: durability costs fall on writers
	// only.
	dataDir          string
	checkpointEvery  int
	dtdSource        string
	walLog           *wal.Log
	walClosed        bool
	recordsSinceCkpt int
	ckptCh           chan *wal.Checkpoint
	ckptMu           sync.Mutex
	ckptWG           sync.WaitGroup
	// ckptSeq is the log sequence covered by the newest written
	// checkpoint, for Stats (atomic: the background checkpointer stores
	// it, Stats loads it).
	ckptSeq atomic.Uint64
	// Checkpoint-failure telemetry (DESIGN.md §11): total failures since
	// open, the current consecutive-failure streak (reset by a success),
	// and the last failure's message. All atomic — writeCheckpoint stores
	// from the checkpointer goroutine, Stats and health checks load.
	ckptFailures   atomic.Uint64
	ckptFailStreak atomic.Uint64
	lastCkptErr    atomic.Pointer[string]

	// Replication (see replica.go). A follower applies the primary's log
	// through the commit path; appliedSeq is the last record applied,
	// primarySeq the newest the primary has reported — their difference is
	// the replication lag. follower is atomic because Promote flips it
	// while readers and the apply loop check it concurrently.
	follower   atomic.Bool
	appliedSeq atomic.Uint64
	primarySeq atomic.Uint64

	// Failover (see replica.go). term is the promotion epoch this node
	// writes (or applies) under; fencedTerm is the highest term observed
	// from any remote — a primary whose fencedTerm exceeds its own term
	// has been superseded and refuses writes with ErrStaleTerm.
	// promotions counts term raises observed (including our own Promote).
	term       atomic.Uint64
	fencedTerm atomic.Uint64
	promotions atomic.Uint64
}

// acquire admits one query, blocking while WithMaxConcurrentQueries
// queries are in flight. The returned release frees the slot; it must be
// called exactly once. With no gate configured both are no-ops.
func (db *Database) acquire(ctx context.Context) (release func(), err error) {
	if db.gate == nil {
		return func() {}, nil
	}
	select {
	case db.gate <- struct{}{}:
		return func() { <-db.gate }, nil
	default:
	}
	var timeout <-chan time.Time
	if db.queueTimeout > 0 {
		t := time.NewTimer(db.queueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case db.gate <- struct{}{}:
		return func() { <-db.gate }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-timeout:
		db.metrics.shed.Add(1)
		return nil, fmt.Errorf("%w: %d queries in flight, queued %v", ErrOverloaded, cap(db.gate), db.queueTimeout)
	}
}

// rescue converts a panic that unwound to the API boundary into an
// ErrInternal-wrapped error carrying the panic value and stack. The
// published snapshot is immutable, so a contained panic cannot have
// corrupted it: the database keeps serving. (Worker goroutines of a
// parallel plan do their own conversion; rescue covers the serial path.)
func rescue(err *error) {
	if r := recover(); r != nil {
		*err = calculus.Internal(r)
	}
}

// OpenDTD compiles a DTD (Section 3) and opens an empty database for its
// documents.
func OpenDTD(dtdSource string, opts ...Option) (*Database, error) {
	return open(dtdSource, false, opts)
}

// open is the shared body of OpenDTD and OpenFollower: the follower flag
// must be set before a durable recovery runs, because a follower's data
// directory replays the primary's shipped history, not its own writes.
func open(dtdSource string, follower bool, opts []Option) (*Database, error) {
	db, err := newDatabase(dtdSource, opts)
	if err != nil {
		return nil, err
	}
	db.follower.Store(follower)
	if db.dataDir != "" {
		// Durable open: recover the last durable state from the data
		// directory (or initialize a fresh one) instead of publishing the
		// empty instance. See durable.go.
		if err := db.openDurable(); err != nil {
			return nil, err
		}
		return db, nil
	}
	db.Engine.Publish(oql.State{Snap: db.Loader.Instance.Snapshot(), Index: db.Engine.Index})
	return db, nil
}

// newDatabase compiles and maps the DTD, builds the engine over the
// loader's empty instance and applies the open options. Nothing is
// published yet: the caller publishes the empty instance, recovers a
// data directory, or adopts an image.
func newDatabase(dtdSource string, opts []Option) (*Database, error) {
	dtd, err := sgml.ParseDTD(dtdSource)
	if err != nil {
		return nil, err
	}
	m, err := dtdmap.MapDTD(dtd)
	if err != nil {
		return nil, err
	}
	loader := dtdmap.NewLoader(m)
	db := &Database{Mapping: m, Loader: loader, dtdSource: dtdSource}
	env := calculus.NewEnv(loader.Instance)
	env.TextOf = dtdmap.TextOf
	db.Engine = oql.New(env)
	db.Engine.Index = text.NewIndex()
	for _, opt := range opts {
		opt(db)
	}
	return db, nil
}

// adopt installs a checkpoint image wholesale — recovery's newest
// checkpoint, a follower's bootstrap, a reopened Save image: the epoch is
// re-anchored so the sequence continues where the image ended, the
// loader continues from the image's documents, and the image's instance
// and index are published together. Caller holds loadMu or owns db
// exclusively (open).
func (db *Database) adopt(ck *wal.Checkpoint) {
	ck.Inst.SetEpoch(ck.Epoch)
	docs := make([]object.OID, len(ck.Docs))
	for i, o := range ck.Docs {
		docs[i] = object.OID(o)
	}
	db.Loader.Adopt(ck.Inst, docs)
	db.Engine.Publish(oql.State{Snap: ck.Inst.Snapshot(), Index: ck.Index})
}

// state returns the published snapshot queries and read-only methods
// answer against.
func (db *Database) state() oql.State { return db.Engine.State() }

// Instance exposes the currently published store instance. Writers
// publish new versions; the returned instance is immutable.
func (db *Database) Instance() *store.Instance { return db.state().Snap.Inst }

// Epoch reports the published snapshot's version number; it advances on
// every successful load or root naming.
func (db *Database) Epoch() uint64 { return db.state().Snap.Epoch }

// Schema exposes the mapped schema.
func (db *Database) Schema() *store.Schema { return db.Instance().Schema() }

// LoadDocument parses, validates and loads one SGML document, returning
// the oid of its document object. The document is added to the plural
// persistence root (e.g. Articles) and to the full-text index. The load
// is atomic — on error the published database state is exactly what it
// was — and concurrent queries keep running against the pre-load
// snapshot. On a follower or a closed durable database it reports
// ErrReadOnly.
func (db *Database) LoadDocument(src string) (object.OID, error) {
	oids, err := db.LoadDocuments([]string{src})
	if err != nil {
		return 0, err
	}
	return oids[0], nil
}

// LoadDocuments loads a batch of documents as one atomic unit: either
// every document becomes visible — in one snapshot publication, one
// copy-on-write layer and one index version — or none does. Batching
// amortises the per-publication cost (root update, index clone, pointer
// swap) over the whole batch. An empty (or nil) batch is a no-op: it
// returns (nil, nil) without taking the writer lock or publishing.
//
// Failures anywhere on the staging path — a document that fails
// validation or loading, and even a panic while rebuilding the text
// index — roll the loader back to the pre-load state (panics surface as
// ErrInternal); the published snapshot was never touched, so concurrent
// queries are unaffected either way.
func (db *Database) LoadDocuments(srcs []string) (oids []object.OID, err error) {
	if db.follower.Load() {
		return nil, fmt.Errorf("%w: followers apply the primary's log only", ErrReadOnly)
	}
	if err := db.degradedErr(); err != nil {
		return nil, err
	}
	// Parse and validate outside the writer lock: only instance building
	// needs serialisation.
	docs := make([]*sgml.Document, len(srcs))
	for i, src := range srcs {
		doc, err := sgml.ParseDocument(db.Mapping.DTD, src)
		if err != nil {
			return nil, err
		}
		docs[i] = doc
	}
	if len(docs) == 0 {
		return nil, nil
	}
	db.loadMu.Lock()
	defer db.loadMu.Unlock()
	return db.commitLoad(docs, srcs, true, 0)
}

// commitLoad stages a parsed batch, makes it durable (when the database
// has a log and logIt is set — recovery replays through here with logIt
// false), and publishes it. Caller holds loadMu.
//
// After a successful LoadAll the loader already sits on the staged layer;
// a failure between that point and Publish (the index rebuild can panic,
// the log append can fail) must swing it back, or the "failed" batch
// would leak into the next successful load. The mark captures the
// pre-load state, and the rollback runs under loadMu, so no other writer
// sees the window. The append is fsynced before Publish: a published
// epoch is always recoverable.
//
// recTerm is the term to log the record under: 0 on the primary write
// path (the log stamps its current term), the shipped record's term on a
// durable follower's apply path.
//
//sgmldbvet:commitpath
func (db *Database) commitLoad(docs []*sgml.Document, srcs []string, logIt bool, recTerm uint64) (oids []object.OID, err error) {
	if err := db.closedErr(); err != nil {
		return nil, err
	}
	if logIt {
		if err := db.fencedErr(); err != nil {
			return nil, err
		}
	}
	mark := db.Loader.Mark()
	defer func() {
		if r := recover(); r != nil {
			err = calculus.Internal(r)
		}
		if err != nil {
			db.Loader.Restore(mark)
			oids = nil
		}
	}()
	oids, err = db.Loader.LoadAll(docs)
	if err != nil {
		return nil, err
	}
	staged := db.Loader.Instance
	ix := db.state().Index.Clone()
	for _, oid := range oids {
		ix.Add(text.DocID(oid), dtdmap.TextOf(staged, oid))
	}
	if logIt && db.walLog != nil {
		if err = db.walLog.Append(wal.Record{Kind: wal.KindLoad, Docs: srcs, Term: recTerm}); err != nil {
			return nil, db.wrapDegraded(err)
		}
	}
	db.Engine.Publish(oql.State{Snap: staged.Snapshot(), Index: ix})
	if logIt {
		db.maybeCheckpoint(staged, ix)
	}
	return oids, nil
}

// Name declares a root of persistence for an object (e.g. my_article),
// making it addressable from queries. It reports ErrUnknownObject for an
// unassigned oid. Like a load, the change is staged on a copy-on-write
// layer (with a cloned schema when the root is new, so pinned readers
// keep a stable view of G) and published atomically.
func (db *Database) Name(name string, oid object.OID) (err error) {
	if db.follower.Load() {
		return fmt.Errorf("%w: followers apply the primary's log only", ErrReadOnly)
	}
	if err := db.degradedErr(); err != nil {
		return err
	}
	defer rescue(&err)
	db.loadMu.Lock()
	defer db.loadMu.Unlock()
	return db.commitName(name, oid, true, 0)
}

// commitName stages, logs (when logIt — recovery replays with it unset),
// and publishes one root naming. Caller holds loadMu.
//
//sgmldbvet:commitpath
func (db *Database) commitName(name string, oid object.OID, logIt bool, recTerm uint64) error {
	if err := db.closedErr(); err != nil {
		return err
	}
	if logIt {
		if err := db.fencedErr(); err != nil {
			return err
		}
	}
	cur := db.state()
	published := cur.Snap.Inst
	class, ok := published.ClassOf(oid)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownObject, oid)
	}
	staged := published.Begin()
	if _, exists := published.Schema().RootType(name); !exists {
		s2 := published.Schema().Clone()
		if err := s2.AddRoot(name, object.Class(class)); err != nil {
			staged.Discard()
			return err
		}
		staged.AdoptSchema(s2)
	}
	if err := staged.SetRoot(name, oid); err != nil {
		staged.Discard()
		return err
	}
	if logIt && db.walLog != nil {
		if err := db.walLog.Append(wal.Record{Kind: wal.KindName, Name: name, OID: uint64(oid), Term: recTerm}); err != nil {
			staged.Discard()
			return db.wrapDegraded(err)
		}
	}
	db.Engine.Publish(oql.State{Snap: staged.Snapshot(), Index: cur.Index})
	// The loader must build the next load on the newly published version,
	// or it would branch from a stale base and drop the root binding.
	db.Loader.Instance = staged
	if logIt {
		db.maybeCheckpoint(staged, cur.Index)
	}
	return nil
}

// Query runs an extended O₂SQL query and returns its value (a set for
// select and pattern queries). It is QueryContext under
// context.Background.
func (db *Database) Query(src string) (object.Value, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext runs a query under a context: cancelling ctx makes the
// evaluation return ctx's error promptly. Any number of QueryContext
// calls may run concurrently, including while a load is in flight: the
// query pins the snapshot current at its start and never blocks on
// writers (admission control, when configured, may queue it behind other
// queries). An evaluation panic is contained here and reported as
// ErrInternal; the database keeps serving. Per-call options tighten the
// database budgets for this one execution (see QueryOption).
func (db *Database) QueryContext(ctx context.Context, src string, opts ...QueryOption) (v object.Value, err error) {
	release, err := db.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	defer func() { db.observe(err) }()
	defer rescue(&err)
	return db.Engine.QueryBudget(ctx, src, db.callBudget(opts))
}

// Prepare parses, typechecks and compiles a query once for repeated —
// possibly concurrent — execution via Run.
func (db *Database) Prepare(src string) (pq *PreparedQuery, err error) {
	defer rescue(&err)
	p, err := db.Engine.Prepare(src)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{db: db, p: p}, nil
}

// PreparedQuery is a compiled query bound to its database. It is safe for
// concurrent use and stays valid across document loads (the plan is
// recompiled transparently when the schema changes; each execution pins
// the snapshot current at its start).
type PreparedQuery struct {
	db *Database
	p  *oql.Prepared
}

// Source returns the query text the statement was prepared from.
func (pq *PreparedQuery) Source() string { return pq.p.Source() }

// Run evaluates the prepared query and returns its value, like
// Database.QueryContext without the per-call front-end work. Executions
// count against admission control like any other query; per-call options
// tighten the database budgets for this one execution.
func (pq *PreparedQuery) Run(ctx context.Context, opts ...QueryOption) (v object.Value, err error) {
	release, err := pq.db.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	defer func() { pq.db.observe(err) }()
	defer rescue(&err)
	return pq.p.RunBudget(ctx, pq.db.callBudget(opts))
}

// Text returns the text of a logical object (the text operator).
func (db *Database) Text(v object.Value) string {
	return dtdmap.TextOf(db.Instance(), v)
}

// Check validates the published instance against the schema and the
// Figure 3 constraints.
func (db *Database) Check() []error {
	return db.Instance().Check()
}

// Save writes the published version to path as one self-contained
// image: the instance, the full-text index, the document list and the
// DTD, in the checkpoint format of the write-ahead log (DESIGN.md §8).
// Like a checkpoint, the image is captured under the writer lock, so the
// document list matches the epoch; the encoding runs outside it. On a
// durable database the image is the checkpoint Checkpoint would write;
// without a log its sequence and term are 0.
func (db *Database) Save(path string) error {
	db.loadMu.Lock()
	st := db.state()
	ck := db.captureCheckpoint(st.Snap.Inst, st.Index)
	db.loadMu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := wal.EncodeCheckpoint(w, ck); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenSnapshot reopens an image written by Save (or a checkpoint file of
// a data directory) as an ordinary in-memory database: the mapping comes
// from the image's own DTD, so it queries, loads, names and exports like
// a database opened with OpenDTD. WithDataDir is refused — a durable
// database recovers from its own directory through OpenDTD.
func OpenSnapshot(path string, opts ...Option) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ck, err := wal.DecodeCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("sgmldb: %s is not a database image: %w", path, err)
	}
	db, err := newDatabase(ck.DTD, opts)
	if err != nil {
		return nil, err
	}
	if db.dataDir != "" {
		return nil, fmt.Errorf("sgmldb: OpenSnapshot does not take WithDataDir; open a data directory with OpenDTD")
	}
	db.adopt(ck)
	return db, nil
}

// Export reconstructs the SGML source of a loaded document object — the
// inverse mapping of the paper's footnote 1. The result re-parses and
// re-loads to an isomorphic instance.
func (db *Database) Export(doc object.OID) (string, error) {
	return dtdmap.Export(db.Mapping, db.Instance(), doc)
}

// SchemaString renders the schema in the paper's Figure 3 syntax.
func (db *Database) SchemaString() string {
	return db.Schema().String()
}

// OpenDTDFile is OpenDTD over a file.
func OpenDTDFile(path string, opts ...Option) (*Database, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return OpenDTD(string(src), opts...)
}

// LoadDocumentFile loads a document from a file.
func (db *Database) LoadDocumentFile(path string) (object.OID, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return db.LoadDocument(string(src))
}
