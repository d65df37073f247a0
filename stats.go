package sgmldb

import (
	"errors"
	"sync/atomic"

	"sgmldb/internal/store"
)

// Stats summarises the database: the instance statistics of the published
// snapshot (embedded, so the seed fields — Objects, PerClass, … — read as
// before) plus the engine counters a serving process reports. The
// counters are cumulative since open and populated from atomics, so Stats
// is safe to call concurrently with queries and loads and costs the
// queries nothing.
type Stats struct {
	store.Stats

	// Epoch is the published snapshot's version number.
	Epoch uint64

	// QueriesServed counts admitted query executions (across Query,
	// QueryContext and prepared Run), successes and failures alike.
	QueriesServed uint64
	// QueriesShed counts queries rejected by admission control with
	// ErrOverloaded; they are not in QueriesServed.
	QueriesShed uint64
	// BudgetExceeded counts served queries killed by a resource budget
	// (database-level or per-call options).
	BudgetExceeded uint64
	// PanicsContained counts served queries that panicked and were
	// contained at the API boundary as ErrInternal.
	PanicsContained uint64

	// PlanCacheHits / PlanCacheMisses count plan-cache lookups in algebra
	// mode; PlanCachePlans is the current number of cached plans.
	PlanCacheHits   uint64
	PlanCacheMisses uint64
	PlanCachePlans  int

	// Durable reports whether the database runs with a write-ahead log
	// (WithDataDir). WALSeq is then the sequence number of the last
	// committed log record, CheckpointSeq the log sequence covered by the
	// newest checkpoint (0 before the first).
	Durable       bool
	WALSeq        uint64
	CheckpointSeq uint64

	// Degraded reports that a storage fault poisoned the write-ahead log:
	// the database serves reads from the last published epoch but rejects
	// writes with ErrDegraded. DegradedReason is the first fault's message
	// (sticky — later cascades never mask the root cause).
	Degraded       bool
	DegradedReason string

	// CheckpointFailures counts failed checkpoint attempts since open;
	// CheckpointFailStreak is the current run of consecutive failures (0
	// after a success) and LastCheckpointError the most recent failure's
	// message. A growing streak means the log prefix — and with it
	// recovery time — is growing without bound on a sick disk.
	CheckpointFailures   uint64
	CheckpointFailStreak uint64
	LastCheckpointError  string

	// Follower reports whether the database currently applies a primary's
	// log (opened with OpenFollower and not promoted). AppliedSeq is then
	// the last primary log record applied, PrimarySeq the newest primary
	// sequence observed; their difference is the replication lag in
	// records.
	Follower   bool
	AppliedSeq uint64
	PrimarySeq uint64

	// Failover telemetry (DESIGN.md §12). Term is the promotion epoch this
	// node writes or applies under (0 on a non-replicating database);
	// Promotions counts the term raises observed since open — our own
	// Promote calls plus promotions applied from the feed. The
	// replication client's own telemetry (re-bootstraps, circuit breaker)
	// lives in service.Follower.
	Term       uint64
	Promotions uint64
}

// metrics holds the facade's cumulative counters. All atomic: they are
// bumped on the hot query path by any number of goroutines and read
// race-free by Stats.
type metrics struct {
	queries     atomic.Uint64
	shed        atomic.Uint64
	budgetKills atomic.Uint64
	panics      atomic.Uint64
}

// observe classifies one served query's outcome into the counters. It
// runs after rescue, so a contained panic is counted from the error it
// became.
func (db *Database) observe(err error) {
	db.metrics.queries.Add(1)
	switch {
	case err == nil:
	case errors.Is(err, ErrBudgetExceeded):
		db.metrics.budgetKills.Add(1)
	case errors.Is(err, ErrInternal):
		db.metrics.panics.Add(1)
	}
}

// Stats summarises the database.
func (db *Database) Stats() Stats {
	hits, misses := db.Engine.PlanCacheStats()
	snap := db.state() // one pinned snapshot: stats and epoch must agree
	st := Stats{
		Stats:           snap.Snap.Inst.Stats(),
		Epoch:           snap.Snap.Epoch,
		QueriesServed:   db.metrics.queries.Load(),
		QueriesShed:     db.metrics.shed.Load(),
		BudgetExceeded:  db.metrics.budgetKills.Load(),
		PanicsContained: db.metrics.panics.Load(),
		PlanCacheHits:   hits,
		PlanCacheMisses: misses,
		PlanCachePlans:  db.Engine.PlanCacheLen(),
	}
	if db.walLog != nil {
		st.Durable = true
		st.WALSeq = db.walLog.Seq()
		st.CheckpointSeq = db.ckptSeq.Load()
		st.Degraded, st.DegradedReason = db.DegradedState()
		st.CheckpointFailures, st.CheckpointFailStreak, st.LastCheckpointError = db.CheckpointFailures()
	}
	if db.follower.Load() {
		st.Follower = true
		st.AppliedSeq = db.appliedSeq.Load()
		st.PrimarySeq = db.primarySeq.Load()
	}
	st.Term = db.term.Load()
	st.Promotions = db.promotions.Load()
	return st
}
