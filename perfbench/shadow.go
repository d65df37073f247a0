package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sgmldb"
	"sgmldb/internal/calculus"
	"sgmldb/internal/corpus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/object"
	"sgmldb/internal/oql"
	"sgmldb/internal/service"
	"sgmldb/internal/sgml"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// tracer produces the per-layer numbers of a traced run. The program is
// not instrumented: every span times a call the benchmark itself makes
// into a layer's exported functions, replaying the operation it just
// sent to the server (a query) or is about to send (a commit) against
// the server's published state. Replays never change that state: commit
// replays stage on private copy-on-write layers, append to the
// benchmark's own log, and apply to a private follower.
type tracer struct {
	rec *recorder
	req atomic.Uint64

	mapping *dtdmap.Mapping
	dir     string

	// mu serialises the commit replays and the private follower's
	// bootstrap and catch-up, which share the log and the follower.
	mu      sync.Mutex
	log     *wal.Log
	appends int
	pf      *sgmldb.Database // private follower

	cmu    sync.Mutex
	counts map[string]*dist
}

// walCadence mirrors the database's default checkpoint cadence (a
// checkpoint every 8 committed records).
const walCadence = 8

func newTracer(dir string, m *dtdmap.Mapping) (*tracer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l, _, _, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	if err := l.Append(wal.Record{Kind: wal.KindSchema, Schema: corpus.ArticleDTD}); err != nil {
		l.Close()
		return nil, err
	}
	pf, err := sgmldb.OpenFollower(corpus.ArticleDTD)
	if err != nil {
		l.Close()
		return nil, err
	}
	return &tracer{rec: newRecorder(), mapping: m, dir: dir, log: l, pf: pf, counts: map[string]*dist{}}, nil
}

func (t *tracer) close() {
	if t == nil {
		return
	}
	t.log.Close()
	t.pf.Close()
}

func (t *tracer) newReq() uint64 { return t.req.Add(1) }

// count records one observation of a count metric.
func (t *tracer) count(name string, v float64) {
	t.cmu.Lock()
	defer t.cmu.Unlock()
	d := t.counts[name]
	if d == nil {
		d = &dist{}
		t.counts[name] = d
	}
	d.addMS(v)
}

// request records the client's round trip of one request and, inside it,
// the server's own time for the call. The server reports only a
// duration, so its span is centred in the round trip.
func (t *tracer) request(req uint64, name string, sent, done time.Time, serverUS int64) {
	id := t.rec.add(0, req, "service.request", sent, done)
	srv := time.Duration(serverUS) * time.Microsecond
	if rt := done.Sub(sent); srv > rt {
		srv = rt
	}
	start := sent.Add((done.Sub(sent) - srv) / 2)
	t.rec.add(id, req, name, start, start.Add(srv))
}

// shadowQuery replays one query through parse, typecheck, lowering,
// naive evaluation, the text index (for contains templates) and the
// wire encoding, on db's published state.
func (t *tracer) shadowQuery(req uint64, db *sgmldb.Database, o queryOp) error {
	st := db.Engine.State()
	inst := st.Snap.Inst
	root := t.rec.open(0, req, "harness.replay_query")
	defer t.rec.close(root)
	var (
		ast oql.Expr
		q   *calculus.Query
		res *calculus.Result
		err error
	)
	t.rec.time(root, req, "oql.parse", func() { ast, err = oql.Parse(o.src()) })
	if err != nil {
		return err
	}
	t.rec.time(root, req, "oql.typecheck", func() { err = oql.Typecheck(inst.Schema(), ast) })
	if err != nil {
		return err
	}
	t.rec.time(root, req, "oql.lower", func() { q, err = oql.Lower(ast, inst.Schema().Roots()) })
	if err != nil {
		return err
	}
	env := calculus.NewEnv(inst)
	env.TextOf = dtdmap.TextOf
	t.rec.time(root, req, "calculus.eval", func() { res, err = env.Eval(q) })
	if err != nil {
		return err
	}
	t.count("calculus.result_rows", float64(res.Len()))
	var expr text.Expr
	switch o.k {
	case collContains, subsection:
		expr = text.MustWord(wordName(o.word))
	case sectionTitle:
		expr = text.And(text.MustWord("Section"), text.MustWord(wordName(o.word)))
	}
	if expr != nil {
		t.rec.time(root, req, "text.eval", func() { st.Index.Eval(expr) })
	}
	var body []byte
	t.rec.time(root, req, "service.encode", func() { body, err = json.Marshal(service.RowsJSON(res.ToSet())) })
	t.count("service.response_bytes", float64(len(body)))
	return err
}

// rootDocs lists the documents under the mapping's persistence root.
func rootDocs(inst *store.Instance, rootName string) []object.OID {
	v, ok := inst.Root(rootName)
	if !ok {
		return nil
	}
	l, ok := v.(*object.List)
	if !ok {
		return nil
	}
	out := make([]object.OID, 0, l.Len())
	for i := 0; i < l.Len(); i++ {
		if o, ok := l.At(i).(object.OID); ok {
			out = append(out, o)
		}
	}
	return out
}

// shadowCommit replays the commit of srcs, before it is sent, through
// the layers the facade's commit crosses: SGML parsing, a copy-on-write
// Begin on the published instance, the DTD mapping into a private layer
// over it, text extraction, the text index clone and adds, and a WAL
// append (and, every walCadence appends, a checkpoint of the published
// version) on the benchmark's own log.
func (t *tracer) shadowCommit(req uint64, db *sgmldb.Database, srcs []string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := db.Engine.State()
	inst, ix := st.Snap.Inst, st.Index
	root := t.rec.open(0, req, "harness.replay_commit")
	defer t.rec.close(root)
	t.count("store.depth", float64(inst.Depth()))
	docs := make([]*sgml.Document, len(srcs))
	var err error
	for i, src := range srcs {
		t.rec.time(root, req, "sgml.parse", func() { docs[i], err = sgml.ParseDocument(t.mapping.DTD, src) })
		if err != nil {
			return err
		}
	}
	t.rec.time(root, req, "store.begin", func() { inst.Begin() })
	ld := dtdmap.NewLoader(t.mapping)
	ld.Adopt(inst, rootDocs(inst, t.mapping.RootName))
	var oids []object.OID
	t.rec.time(root, req, "dtdmap.load", func() { oids, err = ld.LoadAll(docs) })
	if err != nil {
		return err
	}
	texts := make([]string, len(oids))
	for i, oid := range oids {
		t.rec.time(root, req, "dtdmap.textof", func() { texts[i] = dtdmap.TextOf(ld.Instance, oid) })
	}
	var ix2 *text.Index
	t.rec.time(root, req, "text.clone", func() { ix2 = ix.Clone() })
	for i, oid := range oids {
		t.rec.time(root, req, "text.add", func() { ix2.Add(text.DocID(oid), texts[i]) })
	}
	t.rec.time(root, req, "wal.append", func() { err = t.log.Append(wal.Record{Kind: wal.KindLoad, Docs: srcs}) })
	if err != nil {
		return err
	}
	if t.appends++; t.appends%walCadence == 0 {
		ck := &wal.Checkpoint{Seq: t.log.Seq(), Epoch: inst.Epoch(), Term: t.log.Term(), DTD: corpus.ArticleDTD,
			Docs: oidsOf(rootDocs(inst, t.mapping.RootName)), Inst: inst, Index: ix}
		t.rec.time(root, req, "wal.checkpoint", func() { err = wal.WriteCheckpoint(t.dir, ck) })
	}
	return err
}

func oidsOf(docs []object.OID) []uint64 {
	out := make([]uint64, len(docs))
	for i, o := range docs {
		out[i] = uint64(o)
	}
	return out
}

// bootstrap starts the private follower from a checkpoint, the way a
// follower joins: from the primary's newest checkpoint when the primary
// is durable, else from a checkpoint of the published version the
// benchmark writes itself. It then applies any log tail the checkpoint
// does not cover.
func (t *tracer) bootstrap(db *sgmldb.Database, c *client, durable bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	req := t.newReq()
	root := t.rec.open(0, req, "harness.bootstrap")
	defer t.rec.close(root)
	var path string
	var err error
	if durable {
		if err := db.Checkpoint(); err != nil {
			return err
		}
		var ok bool
		if path, _, ok, err = db.NewestCheckpointFile(); err != nil || !ok {
			return fmt.Errorf("bootstrap: no primary checkpoint: %v", err)
		}
	} else {
		st := db.Engine.State()
		inst := st.Snap.Inst
		ck := &wal.Checkpoint{Seq: t.log.Seq(), Epoch: inst.Epoch(), Term: t.log.Term(), DTD: corpus.ArticleDTD,
			Docs: oidsOf(rootDocs(inst, t.mapping.RootName)), Inst: inst, Index: st.Index}
		bdir := filepath.Join(t.dir, "bootstrap")
		if err := os.MkdirAll(bdir, 0o755); err != nil {
			return err
		}
		t.rec.time(root, req, "wal.checkpoint", func() { err = wal.WriteCheckpoint(bdir, ck) })
		if err != nil {
			return err
		}
		if path, _, err = wal.NewestCheckpointPath(bdir); err != nil {
			return err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := t.apply(root, req, data); err != nil {
		return err
	}
	if durable {
		return t.followLocked(req, c)
	}
	return nil
}

func (t *tracer) apply(root int, req uint64, ckpt []byte) error {
	var err error
	d := t.rec.time(root, req, "replica.bootstrap", func() {
		var ck *wal.Checkpoint
		if ck, err = wal.DecodeCheckpoint(bytes.NewReader(ckpt)); err == nil {
			err = t.pf.ApplyCheckpoint(ck)
		}
	})
	t.count("replica.bootstrap_s", d.Seconds())
	return err
}

// follow brings the private follower up to the primary's log through
// GET /v1/feed and ApplyRecord, re-bootstrapping from /v1/checkpoint if
// the primary has already truncated the records it needs.
func (t *tracer) follow(req uint64, c *client) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.followLocked(req, c)
}

func (t *tracer) followLocked(req uint64, c *client) error {
	root := t.rec.open(0, req, "harness.follow")
	defer t.rec.close(root)
	for {
		var (
			body   []byte
			hdr    http.Header
			status int
			err    error
		)
		path := fmt.Sprintf("/v1/feed?after=%d&term=%d&wait_ms=0", t.pf.AppliedSeq(), t.pf.Term())
		t.rec.time(root, req, "replica.feed", func() { body, hdr, status, err = c.raw("GET", path, nil) })
		if err != nil {
			return err
		}
		if status == http.StatusGone {
			ckpt, _, status, err := c.raw("GET", "/v1/checkpoint", nil)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("follow: checkpoint: status %d: %v", status, err)
			}
			if err := t.apply(root, req, ckpt); err != nil {
				return err
			}
			continue
		}
		if status != http.StatusOK {
			return fmt.Errorf("follow: feed: status %d: %s", status, body)
		}
		for len(body) > 0 {
			rec, n, err := wal.DecodeFrame(body)
			if err != nil {
				return err
			}
			body = body[n:]
			t.rec.time(root, req, "replica.apply", func() { err = t.pf.ApplyRecord(rec) })
			if err != nil {
				return err
			}
		}
		primary, _ := strconv.ParseUint(hdr.Get("Sgmldb-Primary-Seq"), 10, 64)
		if t.pf.AppliedSeq() >= primary {
			return nil
		}
	}
}
