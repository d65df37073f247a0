package sgmldb

import (
	"fmt"

	"sgmldb/internal/wal"
)

// Log-shipping replication (DESIGN.md §10) and failover (§12). A primary
// with a data directory exposes its durable history twice over: the
// newest checkpoint file as a bootstrap image (NewestCheckpointFile) and
// the retained log as raw frames (FeedFrames). A follower — opened with
// OpenFollower — applies that history through the same deterministic
// commit path recovery replays through, so a follower that has applied
// sequence S sits on exactly the epoch the primary published at S. The
// follower is read-only for clients: queries serve lock-free from its
// replayed COW snapshot, loads and namings fail with ErrReadOnly.
//
// Every record carries the term (promotion epoch) it was written under.
// A *durable* follower (OpenFollower + WithDataDir) additionally appends
// each shipped record to its own write-ahead log, so its local history is
// byte-equivalent to the primary's — which is what makes Promote a local
// operation: the whole history is already on this node's disk.

// OpenFollower compiles the DTD and opens a read-only database that is
// advanced exclusively through ApplyCheckpoint/ApplyRecord with records
// shipped from a primary's log. Without WithDataDir the follower is
// ephemeral: a restart re-bootstraps from the primary. With WithDataDir
// it keeps a local log and checkpoints of the shipped history — it
// recovers from its own directory like a primary would, and it is
// eligible for Promote.
func OpenFollower(dtdSource string, opts ...Option) (*Database, error) {
	return open(dtdSource, true, opts)
}

// IsFollower reports whether the database currently applies a primary's
// log (opened with OpenFollower and not yet promoted).
func (db *Database) IsFollower() bool { return db.follower.Load() }

// Term is the promotion epoch this node currently writes (or applies)
// under. A fresh durable database starts at term 1; every Promote — here
// or observed from the feed — raises it. A non-durable primary, which
// cannot take part in replication, reports 0.
func (db *Database) Term() uint64 { return db.term.Load() }

// Promotions counts the term raises this node has observed since open:
// its own Promote calls plus promotions applied from shipped records and
// bootstrapped checkpoints.
func (db *Database) Promotions() uint64 { return db.promotions.Load() }

// ObserveRemoteTerm records a term reported by a remote node (a follower
// polling our feed carries its own term on every request). It only moves
// forward. Once a remote term exceeds our own, this node has been
// superseded by a promotion elsewhere: it fences itself — every later
// write fails with ErrStaleTerm — so a partitioned old primary can never
// extend a history the cluster has moved past.
func (db *Database) ObserveRemoteTerm(term uint64) {
	for {
		cur := db.fencedTerm.Load()
		if term <= cur || db.fencedTerm.CompareAndSwap(cur, term) {
			return
		}
	}
}

// fencedErr reports the fencing error primary writes fail with once a
// higher remote term was observed, nil while this node is still the
// authority. Followers are never fenced — they apply under the shipped
// record's own term. Called under loadMu, so a fence observed before the
// check is guaranteed to stop the commit.
func (db *Database) fencedErr() error {
	if db.follower.Load() {
		return nil
	}
	if ft := db.fencedTerm.Load(); ft > db.term.Load() {
		return fmt.Errorf("%w: this primary is at term %d, a remote reported term %d", ErrStaleTerm, db.term.Load(), ft)
	}
	return nil
}

// raiseTerm adopts a higher term, counting the promotion it evidences.
// Caller holds loadMu.
func (db *Database) raiseTerm(term uint64) {
	if term > db.term.Load() {
		db.term.Store(term)
		db.promotions.Add(1)
	}
}

// Promote seals replay and turns this follower into a writable primary
// at a fresh term. It requires a durable follower (WithDataDir): the
// shipped history is then already in the local log, so promotion is one
// local append — a term-bump record at max(own term, highest remote term
// observed)+1 — followed by a synchronous checkpoint so rejoining
// followers always find a bootstrap image at the new term. After Promote
// returns, loads and namings succeed locally and the replication feed
// serves the new term; the caller must stop the follower tail loop (the
// service layer's promote endpoint does).
func (db *Database) Promote() (uint64, error) {
	if !db.follower.Load() {
		return 0, fmt.Errorf("%w: promote", ErrNotFollower)
	}
	if db.walLog == nil {
		return 0, fmt.Errorf("%w: promotion requires a durable follower (WithDataDir)", ErrNotPrimary)
	}
	db.loadMu.Lock()
	if err := db.closedErr(); err != nil {
		db.loadMu.Unlock()
		return 0, err
	}
	if err := db.degradedErr(); err != nil {
		db.loadMu.Unlock()
		return 0, err
	}
	newTerm := db.term.Load()
	if ft := db.fencedTerm.Load(); ft > newTerm {
		newTerm = ft
	}
	newTerm++
	if _, err := db.commit(wal.Record{Kind: wal.KindTerm, Term: newTerm}, nil, true); err != nil {
		db.loadMu.Unlock()
		return 0, err
	}
	db.raiseTerm(newTerm)
	db.follower.Store(false)
	// The new primary checkpoints immediately: a follower re-anchoring
	// after the failover (the deposed primary included) may hold an
	// unshipped suffix from the old term, and the term-stamped checkpoint
	// is what lets its bootstrap truncate that suffix at the boundary.
	st := db.state()
	ck := db.captureCheckpoint(st.Snap.Inst, st.Index)
	db.recordsSinceCkpt = 0
	db.loadMu.Unlock()
	if err := db.writeCheckpoint(ck); err != nil {
		// The promotion itself is durable (the term bump is in the log);
		// a failed checkpoint only delays rejoiners, like any other
		// checkpoint failure. It is already counted in the telemetry.
		return newTerm, nil
	}
	return newTerm, nil
}

// AppliedSeq is the sequence number of the last primary log record this
// follower has applied (0 before any). On a non-follower it is 0.
func (db *Database) AppliedSeq() uint64 { return db.appliedSeq.Load() }

// PrimarySeq is the newest primary log sequence the follower has observed
// (from feed responses), whether or not it has applied that far yet;
// PrimarySeq-AppliedSeq is the replication lag in records.
func (db *Database) PrimarySeq() uint64 { return db.primarySeq.Load() }

// ObservePrimarySeq records the newest primary log sequence seen by the
// replication client. It only moves forward.
func (db *Database) ObservePrimarySeq(seq uint64) {
	for {
		cur := db.primarySeq.Load()
		if seq <= cur || db.primarySeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// ApplyCheckpoint installs a primary checkpoint wholesale — the follower
// bootstrap path, used when the feed reports the follower's anchor was
// truncated away (SEQ_TRUNCATED) or divergent at a promotion boundary
// (STALE_TERM). A checkpoint at or behind the applied sequence is a
// no-op *within the same term*, so a bootstrap racing normal tailing can
// never rewind the follower; a checkpoint at a higher term installs
// unconditionally — that is the term-aware truncation of an unshipped
// suffix a deposed primary carries when it rejoins as a follower. A
// checkpoint from a term *behind* the follower's is rejected with
// ErrStaleTerm: installing it would adopt a deposed primary's forked
// history (and on a durable follower durably discard newer-term records).
// On a durable follower the checkpoint is also written locally and the
// local log reset to the checkpoint's (seq, term), so the stale suffix is
// gone from disk, not just from memory.
func (db *Database) ApplyCheckpoint(ck *wal.Checkpoint) error {
	if !db.follower.Load() {
		return fmt.Errorf("%w: ApplyCheckpoint", ErrNotFollower)
	}
	db.loadMu.Lock()
	defer db.loadMu.Unlock()
	if err := db.closedErr(); err != nil {
		return err
	}
	if ck.Seq <= db.appliedSeq.Load() && ck.Term <= db.term.Load() {
		return nil
	}
	if ck.Term < db.term.Load() {
		return fmt.Errorf("%w: checkpoint carries term %d, follower history is already at term %d",
			ErrStaleTerm, ck.Term, db.term.Load())
	}
	if err := db.adopt(ck, true); err != nil {
		return err
	}
	db.appliedSeq.Store(ck.Seq)
	db.raiseTerm(ck.Term)
	db.ObservePrimarySeq(ck.Seq)
	return nil
}

// ApplyRecord applies one shipped log record through the commit path
// every write and every replayed record takes. Records must arrive in exact sequence order — the apply
// loop anchors its feed requests at AppliedSeq, so a gap (ErrReplicaGap)
// or a record from a superseded term (ErrStaleTerm) means the stream is
// broken and the follower must re-bootstrap rather than guess around it
// (re-applying a load would mint duplicate documents; splicing a stale
// term would fork the history). On a durable follower the record is also
// appended to the local log under its original term.
func (db *Database) ApplyRecord(rec wal.Record) error {
	if !db.follower.Load() {
		return fmt.Errorf("%w: ApplyRecord", ErrNotFollower)
	}
	db.loadMu.Lock()
	defer db.loadMu.Unlock()
	if err := db.closedErr(); err != nil {
		return err
	}
	applied := db.appliedSeq.Load()
	if rec.Seq > applied+1 {
		return fmt.Errorf("%w: record %d arrived with only %d applied", ErrReplicaGap, rec.Seq, applied)
	}
	if rec.Seq != applied+1 {
		return fmt.Errorf("sgmldb: apply: record %d out of order (applied through %d)", rec.Seq, applied)
	}
	if rec.Term > 0 && rec.Term < db.term.Load() {
		return fmt.Errorf("%w: record %d carries term %d, follower is at term %d", ErrStaleTerm, rec.Seq, rec.Term, db.term.Load())
	}
	durable := db.walLog != nil
	if durable && db.walLog.Seq() != applied {
		// The local log and the applied position disagree (an interrupted
		// bootstrap); appending here would misnumber durable history.
		return fmt.Errorf("%w: local log at %d, applied position %d", ErrReplicaGap, db.walLog.Seq(), applied)
	}
	docs, err := db.parseDocs(rec.Docs)
	if err == nil {
		_, err = db.commit(rec, docs, durable)
	}
	if err != nil {
		return fmt.Errorf("sgmldb: apply record %d: %w", rec.Seq, err)
	}
	db.appliedSeq.Store(rec.Seq)
	db.raiseTerm(rec.Term)
	db.ObservePrimarySeq(rec.Seq)
	return nil
}

// FeedFrames returns raw committed log frames after afterSeq (at most
// roughly maxBytes, always at least one frame when any is due) together
// with the sequence number of the last frame returned. afterTerm, when
// non-zero, is the term the caller's history holds at afterSeq; a
// mismatch with this log means the caller diverged at a promotion
// boundary and is reported as ErrStaleTerm — the caller must bootstrap.
// It reports ErrSeqTruncated when afterSeq precedes the retained log —
// again a bootstrap — and ErrNotPrimary on a database without a
// write-ahead log.
func (db *Database) FeedFrames(afterSeq, afterTerm uint64, maxBytes int) ([]byte, uint64, error) {
	if db.walLog == nil {
		return nil, 0, ErrNotPrimary
	}
	return db.walLog.FramesAfter(afterSeq, afterTerm, maxBytes)
}

// FeedWatch returns the last committed log sequence and a channel closed
// when a later record commits, for long-polling feed handlers.
func (db *Database) FeedWatch() (uint64, <-chan struct{}, error) {
	if db.walLog == nil {
		return 0, nil, ErrNotPrimary
	}
	seq, ch := db.walLog.Watch()
	return seq, ch, nil
}

// FeedSeq is the last committed log sequence number on the primary.
func (db *Database) FeedSeq() (uint64, error) {
	if db.walLog == nil {
		return 0, ErrNotPrimary
	}
	return db.walLog.Seq(), nil
}

// NewestCheckpointFile returns the path and covered sequence of the
// newest checkpoint file in the data directory, for streaming to a
// bootstrapping follower. ok is false when no checkpoint has been written
// yet (the follower then tails the log from sequence 0 instead).
func (db *Database) NewestCheckpointFile() (path string, seq uint64, ok bool, err error) {
	if db.walLog == nil {
		return "", 0, false, ErrNotPrimary
	}
	db.ckptMu.Lock() // a checkpoint rename/prune mid-scan would race the pick
	defer db.ckptMu.Unlock()
	path, seq, err = wal.NewestCheckpointPath(db.dataDir)
	if err != nil {
		return "", 0, false, err
	}
	return path, seq, path != "", nil
}
