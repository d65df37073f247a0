package sgmldb

import "time"

// Option configures a Database at open time:
//
//	db, err := sgmldb.OpenDTD(src, sgmldb.WithAlgebra(true), sgmldb.WithWorkers(8))
//
// Options apply before the database is returned, so the engine
// configuration is fixed while queries run — the concurrency contract of
// the engine requires exactly that.
type Option func(*Database)

// WithAlgebra selects the evaluation strategy: true evaluates through the
// Section 5.4 algebra plans (with plan caching), false through the naive
// calculus interpreter. The default is the naive interpreter.
func WithAlgebra(on bool) Option {
	return func(db *Database) { db.Engine.UseAlgebra = on }
}

// WithMaxBranches bounds the (★) expansion of path-variable patterns into
// a union of variable-free plans (0 keeps the engine default).
func WithMaxBranches(n int) Option {
	return func(db *Database) { db.Engine.MaxBranches = n }
}

// WithSkipTypecheck disables the static Section 4.2 checks, leaving only
// execution-time type errors.
func WithSkipTypecheck(on bool) Option {
	return func(db *Database) { db.Engine.SkipTypecheck = on }
}

// WithWorkers bounds intra-query parallelism of algebra plan scans:
// 0 (the default) uses GOMAXPROCS, 1 evaluates serially, n > 1 uses up to
// n goroutines per query. Results are identical at any setting.
func WithWorkers(n int) Option {
	return func(db *Database) { db.Engine.Workers = n }
}

// WithMaxConcurrentQueries admits at most n queries at a time (across
// Query, QueryContext and prepared Run); excess callers
// queue until a slot frees, their context is done, or WithQueueTimeout
// elapses — the latter two shed the query with ctx.Err() or
// ErrOverloaded respectively. n <= 0 (the default) admits everything.
func WithMaxConcurrentQueries(n int) Option {
	return func(db *Database) {
		if n > 0 {
			db.gate = make(chan struct{}, n)
		}
	}
}

// WithQueueTimeout bounds how long an excess query (see
// WithMaxConcurrentQueries) waits for an admission slot before being
// shed with ErrOverloaded. Zero (the default) queues until a slot frees
// or the query's context is done.
func WithQueueTimeout(d time.Duration) Option {
	return func(db *Database) { db.queueTimeout = d }
}

// WithMaxRows bounds the rows a single query may scan or materialise
// (measured at the evaluator's strided polls and at expansion points). A
// query over budget fails with ErrBudgetExceeded; others are unaffected.
// Zero (the default) is unlimited.
func WithMaxRows(n int64) Option {
	return func(db *Database) { db.Engine.Budget.MaxRows = n }
}

// WithMaxMemory bounds the estimated bytes a single query may
// materialise (valuations are costed by arity, not measured
// allocations). A query over budget fails with ErrBudgetExceeded. Zero
// (the default) is unlimited.
func WithMaxMemory(bytes int64) Option {
	return func(db *Database) { db.Engine.Budget.MaxMem = bytes }
}

// WithDataDir makes the database durable in dir (created if missing):
// every committed load batch and root naming is appended to a write-ahead
// log and fsynced before it is published, and OpenDTD recovers the last
// durable state from the directory on startup (newest checkpoint + log
// tail replay). Without this option the database is purely in-memory, as
// before — the query path is identical either way. Only OpenDTD supports
// it: recovery replays document loads, which needs the DTD.
func WithDataDir(dir string) Option {
	return func(db *Database) { db.dataDir = dir }
}

// WithCheckpointEvery sets how many committed records accumulate before
// the background checkpointer snapshots the database and truncates the
// covered log prefix. 0 (the default) checkpoints every 8 records; a
// negative n disables automatic checkpoints (Checkpoint still works).
// Only meaningful together with WithDataDir.
func WithCheckpointEvery(n int) Option {
	return func(db *Database) { db.checkpointEvery = n }
}

// WithQueryTimeout bounds each query's wall-clock evaluation time,
// enforced at the same strided polls as cancellation; an expired query
// fails with ErrBudgetExceeded. Unlike a context deadline it needs no
// caller cooperation, so it also covers Query. Zero (the
// default) is unlimited.
func WithQueryTimeout(d time.Duration) Option {
	return func(db *Database) { db.Engine.Budget.MaxDuration = d }
}
