package sgmldb

import (
	"fmt"

	"sgmldb/internal/store"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// Durability (DESIGN.md §8). With WithDataDir, every committed load batch
// and root naming appends one checksummed record to a write-ahead log and
// fsyncs it *before* the atomic snapshot swap publishes the new epoch —
// so any epoch a reader ever observed is recoverable. A checkpointer
// (background, every WithCheckpointEvery records, or on-demand via
// Checkpoint) serializes the published (instance, index, schema) triple
// to a sidecar file and truncates the log prefix it covers. OpenDTD on an
// existing directory recovers: newest valid checkpoint, then replay of
// the log tail; a torn tail record (the crash signature) is truncated
// silently, any other damage is ErrCorruptLog.

// defaultCheckpointEvery is the auto-checkpoint cadence (in committed
// records) when WithDataDir is set and WithCheckpointEvery is not.
const defaultCheckpointEvery = 8

// openDurable recovers (or initializes) the data directory and attaches
// the log to the database. Called from OpenDTD before the database is
// returned, so no queries or loads race it.
func (db *Database) openDurable() error {
	l, ck, tail, err := wal.Open(db.dataDir)
	if err != nil {
		return err
	}
	db.walLog = l
	if ck != nil {
		db.ckptSeq.Store(ck.Seq)
		if err := db.adopt(ck, false); err != nil {
			l.Close()
			return fmt.Errorf("sgmldb: data directory %s: %w", db.dataDir, err)
		}
	}
	// Replay the records the checkpoint does not cover, through the commit
	// path live writes take, minus the append: loading is deterministic, so
	// replay reproduces the pre-crash oids and epochs. (A replayed term
	// record stages nothing: the log scan already tracked the term.)
	for _, rec := range tail {
		docs, err := db.parseDocs(rec.Docs)
		if err == nil {
			_, err = db.commit(rec, docs, false)
		}
		if err != nil {
			l.Close()
			return fmt.Errorf("sgmldb: data directory %s: replay record %d: %w", db.dataDir, rec.Seq, err)
		}
	}
	if l.Seq() == 0 && !db.follower.Load() {
		// Fresh directory: pin the DTD as the first record so a reopen can
		// verify it is given the same schema. A fresh *follower* directory
		// stays empty — its record 1 is the primary's shipped schema record.
		if _, err := db.commit(wal.Record{Kind: wal.KindSchema, Schema: db.dtdSource}, nil, true); err != nil {
			l.Close()
			return err
		}
	}
	db.term.Store(l.Term())
	if db.follower.Load() {
		// A durable follower's local log is the shipped history: resume
		// applying exactly past what it already holds.
		db.appliedSeq.Store(l.Seq())
		db.ObservePrimarySeq(l.Seq())
	}
	if db.checkpointEvery == 0 {
		db.checkpointEvery = defaultCheckpointEvery
	}
	if db.checkpointEvery > 0 {
		db.ckptCh = make(chan *wal.Checkpoint, 1)
		db.ckptWG.Add(1)
		go db.checkpointer()
	}
	return nil
}

// captureCheckpoint snapshots everything a checkpoint (or a Save image)
// needs. Caller holds loadMu, so the (seq, epoch, docs, inst, index)
// quintuple is consistent; the instance and index are published versions
// and thus immutable, so the checkpointer can serialize them outside the
// lock. Without a log, seq and term are 0.
func (db *Database) captureCheckpoint(inst *store.Instance, ix *text.Index) *wal.Checkpoint {
	rootOIDs := rootDocs(inst, db.Mapping.RootName)
	docs := make([]uint64, len(rootOIDs))
	for i, o := range rootOIDs {
		docs[i] = uint64(o)
	}
	ck := &wal.Checkpoint{
		Epoch: inst.Epoch(),
		DTD:   db.dtdSource,
		Docs:  docs,
		Inst:  inst,
		Index: ix,
	}
	if db.walLog != nil {
		ck.Seq, ck.Term = db.walLog.Seq(), db.walLog.Term()
	}
	return ck
}

// maybeCheckpoint hands the just-published version to the background
// checkpointer once enough records have accumulated. Caller holds loadMu.
// The send never blocks: if the checkpointer is still busy with the
// previous version, this one is skipped and the counter keeps growing, so
// the next commit offers again.
func (db *Database) maybeCheckpoint(inst *store.Instance, ix *text.Index) {
	if db.ckptCh == nil || db.walClosed {
		return
	}
	db.recordsSinceCkpt++
	if db.recordsSinceCkpt < db.checkpointEvery {
		return
	}
	select {
	case db.ckptCh <- db.captureCheckpoint(inst, ix):
		db.recordsSinceCkpt = 0
	default:
	}
}

// checkpointer is the background goroutine that makes offered versions
// durable and drops the log prefix they cover. A failed write only means
// the log keeps more history; the next offer retries from scratch.
func (db *Database) checkpointer() {
	defer db.ckptWG.Done()
	for ck := range db.ckptCh {
		db.writeCheckpoint(ck)
	}
}

// writeCheckpoint serializes one checkpoint and truncates the covered log
// prefix. ckptMu keeps on-demand and background checkpoints from
// interleaving their temp-file/rename/truncate sequences. Every failure —
// background or on-demand — is counted and its message recorded, so a
// silently sick disk shows up in Stats and /v1/health long before the log
// poisons: a failed checkpoint only means the log keeps more history, but
// a *streak* of them means recovery time is growing without bound.
func (db *Database) writeCheckpoint(ck *wal.Checkpoint) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	err := wal.WriteCheckpoint(db.dataDir, ck)
	if err == nil {
		db.ckptSeq.Store(ck.Seq)
		err = db.walLog.TruncatePrefix(ck.Seq)
	}
	if err != nil {
		db.ckptFailures.Add(1)
		db.ckptFailStreak.Add(1)
		msg := err.Error()
		db.lastCkptErr.Store(&msg)
		return err
	}
	db.ckptFailStreak.Store(0)
	return nil
}

// Checkpoint forces a checkpoint of the currently published version and
// truncates the log prefix it covers, synchronously. On a database
// without a data directory it is a no-op; after Close it reports
// ErrReadOnly. Useful before a planned shutdown to make the next open's
// recovery O(1) in loaded documents.
func (db *Database) Checkpoint() error {
	if db.walLog == nil {
		return nil
	}
	db.loadMu.Lock()
	if err := db.closedErr(); err != nil {
		db.loadMu.Unlock()
		return err
	}
	st := db.state()
	ck := db.captureCheckpoint(st.Snap.Inst, st.Index)
	db.recordsSinceCkpt = 0
	db.loadMu.Unlock()
	return db.writeCheckpoint(ck)
}

// closedErr reports the error every write path fails with once Close has
// released the log: ErrReadOnly, the closed store's wire contract — never
// an append on the closed file, which would poison the log and read as a
// storage fault. Caller holds loadMu, which Close takes to set walClosed.
func (db *Database) closedErr() error {
	if db.walClosed {
		return fmt.Errorf("%w: database is closed", ErrReadOnly)
	}
	return nil
}

// degradedErr reports the degraded-mode error writers fail fast with:
// non-nil exactly when the write-ahead log is poisoned. It wraps
// ErrDegraded around the log's sticky reason so callers can branch with
// errors.Is(err, ErrDegraded) and still read the root cause.
func (db *Database) degradedErr() error {
	if db.walLog == nil {
		return nil
	}
	if perr := db.walLog.Err(); perr != nil {
		return fmt.Errorf("%w: %w", ErrDegraded, perr)
	}
	return nil
}

// wrapDegraded dresses a commit-path append failure in ErrDegraded when
// the failure poisoned the log (or found it already poisoned). Transient
// injected faults that do not poison — the crash-seam faultpoints — pass
// through unchanged: they model a kill, not a sick disk.
func (db *Database) wrapDegraded(err error) error {
	if err == nil || db.walLog == nil || db.walLog.Err() == nil {
		return err
	}
	return fmt.Errorf("%w: %w", ErrDegraded, err)
}

// DegradedState reports whether the database is in degraded read-only
// mode and, when it is, the sticky reason (the first storage fault that
// poisoned the log). A non-durable database is never degraded.
func (db *Database) DegradedState() (degraded bool, reason string) {
	if db.walLog == nil {
		return false, ""
	}
	if perr := db.walLog.Err(); perr != nil {
		return true, perr.Error()
	}
	return false, ""
}

// CheckpointFailures reports the checkpoint-failure telemetry: total
// failed checkpoint attempts since open, the current consecutive-failure
// streak (0 after a success), and the last failure's message ("" if
// none).
func (db *Database) CheckpointFailures() (total, streak uint64, lastErr string) {
	total = db.ckptFailures.Load()
	streak = db.ckptFailStreak.Load()
	if msg := db.lastCkptErr.Load(); msg != nil {
		lastErr = *msg
	}
	return total, streak, lastErr
}

// ScrubReport summarises one online integrity pass over the data
// directory: every committed log frame re-read and re-validated, every
// checkpoint file fully decoded.
type ScrubReport struct {
	Frames         int    // valid committed log frames
	LastSeq        uint64 // last committed log sequence number
	Checkpoints    int    // checkpoint files that fully decode
	BadCheckpoints int    // checkpoint files that do not (recovery skips them)
	CheckpointSeq  uint64 // newest valid checkpoint's covered sequence
}

// Scrub runs an online integrity check of the data directory without
// stopping the database: it re-reads the committed log from disk and
// re-verifies every frame's checksum and the sequence chain, then fully
// decodes every checkpoint file. Readers are untouched (queries run
// against published in-memory epochs); appends are held out only for one
// sequential read of the log. A degraded database can still be scrubbed —
// auditing the durable prefix is exactly what an operator wants before
// failing over. On a database without a data directory it reports
// ErrNotPrimary.
func (db *Database) Scrub() (*ScrubReport, error) {
	if db.walLog == nil {
		return nil, fmt.Errorf("%w: scrub", ErrNotPrimary)
	}
	frames, lastSeq, err := db.walLog.Scrub()
	if err != nil {
		return nil, err
	}
	newest, valid, bad, err := wal.ScrubCheckpoints(db.dataDir)
	if err != nil {
		return nil, err
	}
	return &ScrubReport{
		Frames:         frames,
		LastSeq:        lastSeq,
		Checkpoints:    valid,
		BadCheckpoints: bad,
		CheckpointSeq:  newest,
	}, nil
}

// Close releases the durability machinery: it stops the background
// checkpointer and closes the log file. The in-memory database keeps
// answering queries, but further loads, namings, checkpoints and applies
// fail with ErrReadOnly. On a database
// without a data directory it is a no-op. Close is idempotent.
func (db *Database) Close() error {
	db.loadMu.Lock()
	if db.walLog == nil || db.walClosed {
		db.loadMu.Unlock()
		return nil
	}
	db.walClosed = true
	db.loadMu.Unlock()
	if db.ckptCh != nil {
		close(db.ckptCh)
	}
	db.ckptWG.Wait()
	return db.walLog.Close()
}
