package sgmldb

import (
	"errors"

	"sgmldb/internal/calculus"
	"sgmldb/internal/oql"
	"sgmldb/internal/wal"
)

// Sentinel errors returned (wrapped) by the Database API; test with
// errors.Is.
var (
	// ErrReadOnly is returned by writers (LoadDocument, LoadDocuments,
	// Name, Checkpoint, and the follower apply path) on a database that
	// does not accept them: a follower, which changes only by applying
	// its primary's log, and a durable database after Close.
	ErrReadOnly = errors.New("sgmldb: database is read-only")

	// ErrUnknownObject is returned when an operation refers to an oid that
	// is not assigned in the instance.
	ErrUnknownObject = errors.New("sgmldb: unknown object")

	// ErrOverloaded is returned when admission control sheds a query: the
	// database already runs WithMaxConcurrentQueries queries and the
	// caller's wait exceeded WithQueueTimeout. Overload is the caller's
	// signal to back off (or retry elsewhere); the queries already admitted
	// are unaffected.
	ErrOverloaded = errors.New("sgmldb: overloaded, query shed by admission control")

	// ErrBudgetExceeded is returned when a query exhausts its resource
	// budget (WithMaxRows, WithMaxMemory, WithQueryTimeout). The message
	// carries the cost accrued up to the trip point. Only the offending
	// query fails; the database and other in-flight queries are unaffected.
	// It aliases the internal sentinel so errors.Is works across layers.
	ErrBudgetExceeded = calculus.ErrBudgetExceeded

	// ErrInternal is returned when an evaluation panics: the panic is
	// contained at the API boundary (or at the spawning worker), converted
	// to an error wrapping this sentinel together with the panic value and
	// stack, and the database keeps serving from its published snapshot.
	ErrInternal = calculus.ErrInternal

	// ErrParse is returned when a query source is not well-formed O₂SQL:
	// every lexical and syntactic rejection wraps it. It aliases the
	// internal sentinel so errors.Is works across layers.
	ErrParse = oql.ErrParse

	// ErrTypecheck is returned when a well-formed query fails the static
	// Section 4.2 checks (and by the paper's deferred execution-time type
	// errors). It aliases the internal sentinel so errors.Is works across
	// layers.
	ErrTypecheck = oql.ErrTypecheck

	// ErrCorruptLog is returned by OpenDTD(..., WithDataDir(dir)) when the
	// write-ahead log in dir is damaged somewhere other than its tail. A
	// torn tail record is the normal signature of a crash and is truncated
	// silently during recovery; corruption before the tail means durable
	// history was lost, which recovery refuses to guess around. It aliases
	// the internal sentinel so errors.Is works across layers.
	ErrCorruptLog = wal.ErrCorruptLog

	// ErrUnsupportedVersion is returned by OpenDTD(..., WithDataDir(dir))
	// when dir was written by an older on-disk format version this build
	// cannot read in place (a pre-term v1 log or checkpoint). Unlike
	// ErrCorruptLog the data is healthy — rebuild the directory under the
	// current format by re-loading the documents or re-bootstrapping from
	// a current primary. It aliases the internal sentinel so errors.Is
	// works across layers.
	ErrUnsupportedVersion = wal.ErrUnsupportedVersion

	// ErrDegraded is returned by writers (LoadDocument, LoadDocuments,
	// Name) on a durable database whose write-ahead log was poisoned by a
	// storage fault (a failed fsync, a full disk, a lost handle). The
	// database is degraded, not down: readers keep serving the last
	// published epoch and the replication feed keeps shipping the durable
	// prefix, but nothing new can be made durable, so nothing new is
	// accepted. The wrapped cause (wal.ErrPoisoned with its classified
	// root) says why; recovery is operational — fix the storage, then
	// reopen (fsck first if in doubt).
	ErrDegraded = errors.New("sgmldb: degraded (read-only): a storage fault poisoned the write-ahead log")

	// ErrNotPrimary is returned by the replication feed accessors
	// (FeedFrames, FeedWatch, FeedSeq, NewestCheckpointFile) on a database
	// without a write-ahead log: only a durable primary has history to
	// ship to followers.
	ErrNotPrimary = errors.New("sgmldb: not a primary (no write-ahead log to ship)")

	// ErrSeqTruncated is returned by FeedFrames when the requested anchor
	// precedes the retained log — a checkpoint dropped that prefix, and
	// the follower must bootstrap from a checkpoint instead of tailing
	// frames. It aliases the internal sentinel so errors.Is works across
	// layers.
	ErrSeqTruncated = wal.ErrSeqTruncated

	// ErrStaleTerm is returned when a promotion elsewhere has superseded
	// the caller's view of the log: a fenced old primary refusing writes
	// after observing a higher term, a feed anchor whose term diverges
	// from the serving log's history, a shipped record from a deposed
	// source. The write side must stop; the follower side must bootstrap
	// from the current primary. It aliases the internal sentinel so
	// errors.Is works across layers.
	ErrStaleTerm = wal.ErrStaleTerm

	// ErrReplicaGap is returned by ApplyRecord when a shipped record skips
	// past the follower's applied position — the stream lost records (a
	// mid-poll reconnect against a primary whose retained log moved, an
	// interrupted bootstrap). Applying around a gap would fork the replica
	// from the primary's history, so the follower must re-bootstrap from a
	// checkpoint instead.
	ErrReplicaGap = errors.New("sgmldb: replica stream gap; checkpoint re-bootstrap required")

	// ErrNotFollower is returned by the follower-only operations (Promote,
	// ApplyCheckpoint, ApplyRecord) on a database that is not (or is no
	// longer) a follower.
	ErrNotFollower = errors.New("sgmldb: not a follower")
)
