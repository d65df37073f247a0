package main

import (
	"fmt"
	"runtime"
	"time"

	"sgmldb"
	"sgmldb/internal/corpus"
	"sgmldb/internal/service"
	"sgmldb/internal/wal"
)

// checks runs the end-of-run output checks into p: one query of every
// template against the oracle; on ingest also the presence of every
// acknowledged document; on mixed, the follower's answers against the
// primary's at the same epoch.
func (s *stage) checks(p *phase) {
	ops := fixedOps(newOpSource(s.cfg.seed*1009 + 7))
	ops = append(ops, queryOp{k: allDocs})
	switch s.cfg.workload {
	case "mixed":
		s.checkFollower(p, ops)
	default:
		c := newClient(s.primary.url)
		defer c.close()
		for _, o := range ops {
			p.attempt()
			if _, _, _, err := s.query(s.primary, c, "", o); err != nil {
				p.fail(fmt.Errorf("end-of-run check: %w", err))
			}
		}
	}
}

// checkFollower waits for the follower to reach the primary's epoch, then
// requires every fixed query to answer identically on both, and
// correctly by the oracle.
func (s *stage) checkFollower(p *phase, ops []queryOp) {
	pc, fc := newClient(s.primary.url), newClient(s.follower.url)
	defer pc.close()
	defer fc.close()
	p.attempt()
	if err := waitEpoch(s.follower.db, s.primary.db.Epoch(), 30*time.Second); err != nil {
		p.fail(err)
		return
	}
	for _, o := range ops {
		p.attempt()
		rp, _, _, err := s.query(s.primary, pc, "", o)
		if err != nil {
			p.fail(fmt.Errorf("primary: %w", err))
			continue
		}
		rf, _, _, err := s.query(s.follower, fc, "", o)
		switch {
		case err != nil:
			p.fail(fmt.Errorf("follower: %w", err))
		case rf.Epoch != rp.Epoch:
			p.fail(fmt.Errorf("%s: follower answered at epoch %d, primary at %d", o.name(), rf.Epoch, rp.Epoch))
		case rf.canonical() != rp.canonical():
			p.fail(fmt.Errorf("%s: follower and primary answers differ at epoch %d", o.name(), rp.Epoch))
		}
	}
}

// recovery takes the recovery shape of the ingest workload: a checkpoint,
// then a tail of recoveryTail documents that stays in the log, then a
// clean close. It times OpenDTD on the data directory and checks that the
// recovered node is at the pre-close epoch and holds every acknowledged
// document.
func (s *stage) recovery(p *phase) (time.Duration, error) {
	db := s.primary.db
	if err := db.Checkpoint(); err != nil {
		return 0, err
	}
	c := newClient(s.primary.url)
	for i := 0; i < recoveryTail; i++ {
		p.attempt()
		if _, _, _, err := s.write(c, &phase{}); err != nil {
			c.close()
			return 0, err
		}
	}
	c.close()
	pre := db.Epoch()
	err := s.primary.stop()
	s.primary = nil
	if err != nil {
		return 0, err
	}
	runtime.GC()
	dir := s.dataDir("primary")
	if s.tr != nil {
		s.tr.rec.time(0, s.tr.newReq(), "wal.open", func() {
			var l *wal.Log
			if l, _, _, err = wal.Open(dir); err == nil {
				err = l.Close()
			}
		})
		if err != nil {
			return 0, err
		}
	}
	start := time.Now()
	rdb, err := sgmldb.OpenDTD(corpus.ArticleDTD, sgmldb.WithDataDir(dir))
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	defer rdb.Close()
	p.attempt()
	if rdb.Epoch() != pre {
		p.fail(fmt.Errorf("recovered at epoch %d, closed at %d", rdb.Epoch(), pre))
	}
	p.attempt()
	v, err := rdb.Query(queryOp{k: allDocs}.src())
	if err != nil {
		p.fail(fmt.Errorf("recovered node: %w", err))
		return took, nil
	}
	var got []string
	for _, row := range service.RowsJSON(v) {
		oid, _ := row.(string)
		got = append(got, oid)
	}
	vis, err := s.or.visible(pre)
	if err != nil {
		return took, err
	}
	want := make([]string, len(vis))
	for i, f := range vis {
		want[i] = f.oid
	}
	if err := sameSet(got, want); err != nil {
		p.fail(fmt.Errorf("recovered node: %w", err))
	}
	return took, nil
}
