package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sgmldb"
	"sgmldb/internal/corpus"
	"sgmldb/internal/object"
	"sgmldb/internal/service"
	"sgmldb/internal/wal"
)

// Workload sizes and rates. README.md gives the reasons.
const (
	batchSize    = 500 // documents per bulk /v1/load in setup
	setupReps    = 3   // set-ups per untraced run; setup_s is their median
	queryClients = 2   // closed-loop clients on query
	// writeRate is mixed's open-loop load rate on the primary. At 10/s
	// both nodes checkpoint every 0.8 s and a 2-CPU host saturates: the
	// backlog, and with it every latency, varied tenfold between runs.
	writeRate = 4.0
	// readRate is mixed's open-loop query rate on the follower: about half
	// of what one closed-loop client completes on query on a 2-CPU host.
	readRate = 9.0
	// recoveryTail documents are committed after the recovery checkpoint,
	// below the checkpoint cadence of 8, so recovery replays a log tail.
	recoveryTail = 7
)

var baseDocs = map[string]int{"query": 1000, "ingest": 5000, "mixed": 1000}

func durable(workload string) bool { return workload != "query" }

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // scratch space inside the checkout, removed at exit
}

// stage is a set-up system: the serving node(s), the oracle of what they
// hold, and the generator that continues the corpus for writes.
type stage struct {
	cfg      config
	gen      *corpus.Generator
	nextID   int
	or       *oracle
	roots    []int // oracle index of each named root
	primary  *node
	follower *node // mixed only
	stopTail context.CancelFunc
	tailDone chan struct{}
	epoch    uint64 // the primary's epoch after the writer's last commit
	raw      int64  // SGML bytes committed
	tr       *tracer

	smu          sync.Mutex
	serverQuery  dist // server elapsed_us of queries, in ms
	serverCommit dist // server elapsed_us of loads, in ms

	// skewed counts answers whose reported epoch is newer than the
	// snapshot they were computed on (see check).
	skewed atomic.Int64
}

func (s *stage) reader() *node {
	if s.follower != nil {
		return s.follower
	}
	return s.primary
}

func (s *stage) dataDir(name string) string { return filepath.Join(s.cfg.dir, name) }

// setup generates the base corpus, opens the database the way cmd/sgmldbd
// does (default options: the naive evaluator), serves it, bulk-loads the
// corpus over HTTP, names the roots and, on mixed, bootstraps the
// follower. It returns once the system is ready to serve.
func setup(cfg config) (*stage, error) {
	n := baseDocs[cfg.workload]
	s := &stage{cfg: cfg, gen: corpus.NewGenerator(corpus.Params{Seed: cfg.seed}), or: newOracle()}
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = s.gen.Article(i)
	}
	s.nextID = n
	var opts []sgmldb.Option
	if durable(cfg.workload) {
		opts = append(opts, sgmldb.WithDataDir(s.dataDir("primary")))
	}
	db, err := sgmldb.OpenDTD(corpus.ArticleDTD, opts...)
	if err != nil {
		return s, err
	}
	if s.primary, err = startNode(db); err != nil {
		db.Close()
		return s, err
	}
	if cfg.trace {
		if s.tr, err = newTracer(s.dataDir("trace"), db.Mapping); err != nil {
			return s, err
		}
	}
	c := newClient(s.primary.url)
	defer c.close()
	s.epoch = db.Epoch()
	for i := 0; i < n; i += batchSize {
		if _, _, _, err := s.commit(c, srcs[i:min(i+batchSize, n)]); err != nil {
			return s, fmt.Errorf("bulk load: %w", err)
		}
	}
	for k := 0; k < namedRoots; k++ {
		idx := k * n / namedRoots
		oid, err := parseOID(s.or.at(idx).oid)
		if err != nil {
			return s, err
		}
		if err := db.Name(rootName(k), oid); err != nil {
			return s, err
		}
		s.roots = append(s.roots, idx)
	}
	s.epoch = db.Epoch()
	if cfg.workload == "mixed" {
		if err := s.startFollower(); err != nil {
			return s, err
		}
	}
	if s.tr != nil {
		if err := s.tr.bootstrap(db, c, durable(cfg.workload)); err != nil {
			return s, fmt.Errorf("private follower: %w", err)
		}
	}
	return s, nil
}

func parseOID(s string) (object.OID, error) {
	n, err := strconv.ParseUint(strings.TrimPrefix(s, "o"), 10, 64)
	if err != nil || !strings.HasPrefix(s, "o") {
		return 0, fmt.Errorf("bad oid %q", s)
	}
	return object.OID(n), nil
}

// startFollower checkpoints the primary, opens a durable follower that
// bootstraps from that checkpoint and tails the primary's feed with
// service.Follower, and waits until it has caught up.
func (s *stage) startFollower() error {
	if err := s.primary.db.Checkpoint(); err != nil {
		return err
	}
	fdb, err := sgmldb.OpenFollower(corpus.ArticleDTD, sgmldb.WithDataDir(s.dataDir("follower")))
	if err != nil {
		return err
	}
	if s.follower, err = startNode(fdb); err != nil {
		fdb.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopTail, s.tailDone = cancel, make(chan struct{})
	fl := &service.Follower{DB: fdb, Primary: s.primary.url}
	go func() {
		defer close(s.tailDone)
		_ = fl.Run(ctx) // returns the cancellation
	}()
	return waitEpoch(fdb, s.primary.db.Epoch(), time.Minute)
}

func waitEpoch(db *sgmldb.Database, epoch uint64, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for db.Epoch() < epoch {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at epoch %d, want %d", db.Epoch(), epoch)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// teardown stops everything setup started and removes its files.
func (s *stage) teardown() error {
	var errs []string
	if s.stopTail != nil {
		s.stopTail()
		<-s.tailDone
	}
	for _, n := range []*node{s.follower, s.primary} {
		if n != nil {
			if err := n.stop(); err != nil {
				errs = append(errs, err.Error())
			}
		}
	}
	s.follower, s.primary = nil, nil
	s.tr.close()
	for _, d := range []string{"primary", "follower", "trace"} {
		if err := os.RemoveAll(s.dataDir(d)); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("teardown: %s", strings.Join(errs, "; "))
	}
	return nil
}

// commit loads srcs as one batch on the primary. The single writer knows
// the epoch the commit will publish, so the oracle learns the documents
// before any reader can see them. It returns the acknowledgement and the
// round trip of the /v1/load call.
func (s *stage) commit(c *client, srcs []string) (loadResp, time.Time, time.Time, error) {
	want := s.epoch + 1
	idx := make([]int, len(srcs))
	for i, src := range srcs {
		idx[i] = s.or.register(src, want)
	}
	var req uint64
	if s.tr != nil {
		req = s.tr.newReq()
		if err := s.tr.shadowCommit(req, s.primary.db, srcs); err != nil {
			return loadResp{}, time.Time{}, time.Time{}, fmt.Errorf("replaying commit: %w", err)
		}
	}
	sent := time.Now()
	r, err := c.load(srcs)
	done := time.Now()
	if err == nil && r.Epoch != want {
		err = fmt.Errorf("load acknowledged at epoch %d, want %d", r.Epoch, want)
	}
	if err != nil {
		for _, i := range idx {
			s.or.forget(i)
		}
		return r, sent, done, err
	}
	s.epoch = want
	for i, oid := range r.OIDs {
		s.or.acked(idx[i], oid)
	}
	for _, src := range srcs {
		s.raw += int64(len(src))
	}
	s.smu.Lock()
	s.serverCommit.addMS(float64(r.ElapsedUS) / 1000)
	s.smu.Unlock()
	if s.tr != nil {
		s.tr.request(req, "sgmldb.commit", sent, done, r.ElapsedUS)
		if durable(s.cfg.workload) {
			if err := s.tr.follow(req, c); err != nil {
				return r, sent, done, fmt.Errorf("private follower: %w", err)
			}
		}
	}
	return r, sent, done, nil
}

// query runs one query operation on n, checks the answer against the
// oracle, and in a traced run replays it through the layers.
func (s *stage) query(n *node, c *client, handle string, o queryOp) (rowsResp, time.Time, time.Time, error) {
	from := n.db.Epoch()
	sent := time.Now()
	r, err := c.query(o, handle)
	done := time.Now()
	if err != nil {
		return r, sent, done, err
	}
	s.smu.Lock()
	s.serverQuery.addMS(float64(r.ElapsedUS) / 1000)
	s.smu.Unlock()
	skewed, err := check(s.or, s.roots, o, r, from)
	if err != nil {
		return r, sent, done, fmt.Errorf("%s: wrong answer at epoch %d: %w", o.name(), r.Epoch, err)
	}
	if skewed {
		s.skewed.Add(1)
	}
	if s.tr != nil {
		req := s.tr.newReq()
		s.tr.request(req, "sgmldb.query", sent, done, r.ElapsedUS)
		if err := s.tr.shadowQuery(req, n.db, o); err != nil {
			return r, sent, done, fmt.Errorf("replaying %s: %w", o.name(), err)
		}
	}
	return r, sent, done, nil
}

// phase is one timed stretch of a workload.
type phase struct {
	mu         sync.Mutex
	elapsed    time.Duration
	lat        dist // the workload's measured operation: queries on query, loads on ingest and mixed
	ops        int  // completed measured operations
	overhead   dist // round trip minus server time, measured operations
	readLat    dist // mixed: follower queries, timed from their due time
	readSvc    dist // mixed: follower queries, timed from their send
	lag        dist // mixed: primary ack of epoch E until the follower is at E
	lagRecs    dist // mixed: follower's PrimarySeq - AppliedSeq at each ack
	late       dist // open loops: how late the generator sent
	attempted  int
	failed     int
	errs       []string
	rt0, rt1   rtSample
	cpu0, cpu1 time.Duration // process CPU time, user + system
	walBytes   int64         // traced durable runs: log frame + checkpoint bytes written
	ckpts      int           // traced durable runs: checkpoints that completed
	userBytes  int64         // SGML bytes committed
}

func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) attempt() {
	p.mu.Lock()
	p.attempted++
	p.mu.Unlock()
}

// measured records one completed measured operation.
func (p *phase) measured(lat time.Duration, sent, done time.Time, serverUS int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ops++
	p.lat.add(lat)
	p.overhead.add(done.Sub(sent) - time.Duration(serverUS)*time.Microsecond)
}

// run drives the workload's timed load for d.
func (s *stage) run(d time.Duration, salt int64) *phase {
	p := &phase{}
	p.rt0 = readRuntime()
	p.cpu0 = processCPU()
	start := time.Now()
	end := start.Add(d)
	raw0 := s.raw
	switch s.cfg.workload {
	case "query":
		var wg sync.WaitGroup
		for i := 0; i < queryClients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.queryClient(p, s.cfg.seed*1009+salt*31+int64(i), end)
			}(i)
		}
		wg.Wait()
	case "ingest":
		c := newClient(s.primary.url)
		defer c.close()
		closedLoop(end, func() {
			p.attempt()
			r, sent, done, err := s.write(c, p)
			if err != nil {
				p.fail(err)
				return
			}
			p.measured(done.Sub(sent), sent, done, r.ElapsedUS)
		})
	case "mixed":
		s.mixed(p, start, end, salt)
	}
	p.elapsed = time.Since(start)
	p.cpu1 = processCPU()
	p.rt1 = readRuntime()
	p.userBytes = s.raw - raw0
	return p
}

// write commits one freshly generated article; traced durable runs also
// account the WAL and checkpoint bytes the commit caused.
func (s *stage) write(c *client, p *phase) (loadResp, time.Time, time.Time, error) {
	src := s.gen.Article(s.nextID)
	s.nextID++
	var ckSeq0 uint64
	if s.tr != nil {
		_, ckSeq0, _, _ = s.primary.db.NewestCheckpointFile()
	}
	r, sent, done, err := s.commit(c, []string{src})
	if err == nil && s.tr != nil {
		p.mu.Lock()
		p.walBytes += int64(len(wal.EncodeFrame(wal.Record{Kind: wal.KindLoad, Docs: []string{src}})))
		if path, seq, ok, _ := s.primary.db.NewestCheckpointFile(); ok && seq != ckSeq0 {
			if fi, err := os.Stat(path); err == nil {
				p.walBytes += fi.Size()
			}
			p.ckpts++
		}
		p.mu.Unlock()
	}
	return r, sent, done, err
}

// queryClient is one closed-loop query client: it prepares the status
// template once, then issues the mix until end.
func (s *stage) queryClient(p *phase, seed int64, end time.Time) {
	n := s.reader()
	c := newClient(n.url)
	defer c.close()
	p.attempt()
	handle, err := c.prepare(statusQuery)
	if err != nil {
		p.fail(err)
	}
	src := newOpSource(seed)
	closedLoop(end, func() {
		p.attempt()
		r, sent, done, err := s.query(n, c, handle, src.next())
		if err != nil {
			p.fail(err)
			return
		}
		p.measured(done.Sub(sent), sent, done, r.ElapsedUS)
	})
}

type ack struct {
	epoch uint64
	at    time.Time
}

// mixed runs the open-loop writer on the primary and the open-loop reader
// on the follower, and times replication from each acknowledgement.
func (s *stage) mixed(p *phase, start, end time.Time, salt int64) {
	fdb := s.follower.db
	// One acknowledgement per write: writeRate times the longest run.
	acks := make(chan ack, int(writeRate*120))
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		for a := range acks {
			p.mu.Lock()
			p.lagRecs.addMS(float64(fdb.PrimarySeq() - min(fdb.PrimarySeq(), fdb.AppliedSeq())))
			p.mu.Unlock()
			if err := waitEpoch(fdb, a.epoch, 30*time.Second); err != nil {
				p.fail(err)
				continue
			}
			p.mu.Lock()
			p.lag.add(time.Since(a.at))
			p.mu.Unlock()
		}
	}()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(s.primary.url)
		defer c.close()
		timings := openLoop(wallClock{}, start, end, writeRate, func(_ int, due time.Time) {
			p.attempt()
			r, sent, done, err := s.write(c, p)
			if err != nil {
				p.fail(err)
				return
			}
			acks <- ack{epoch: r.Epoch, at: done}
			p.measured(done.Sub(due), sent, done, r.ElapsedUS)
		})
		p.addLate(timings)
	}()
	go func() {
		defer wg.Done()
		n := s.follower
		c := newClient(n.url)
		defer c.close()
		p.attempt()
		handle, err := c.prepare(statusQuery)
		if err != nil {
			p.fail(err)
		}
		src := newOpSource(s.cfg.seed*1009 + salt*31)
		timings := openLoop(wallClock{}, start, end, readRate, func(_ int, due time.Time) {
			p.attempt()
			_, sent, done, err := s.query(n, c, handle, src.next())
			if err != nil {
				p.fail(err)
				return
			}
			p.mu.Lock()
			p.readLat.add(done.Sub(due))
			p.readSvc.add(done.Sub(sent))
			p.mu.Unlock()
		})
		p.addLate(timings)
	}()
	wg.Wait()
	close(acks)
	<-lagDone
}

func (p *phase) addLate(ts []opTiming) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range ts {
		p.late.add(t.late())
	}
}

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct{ gcCPU, totalCPU, allocBytes, allocObjects float64 }

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), allocObjects: v(3)}
}

// processCPU is the CPU time the process has used, user and system. It
// counts the server, the client and the database's background work
// alike, and unlike wall time it does not grow when other tenants of a
// shared host take the CPUs.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuPerOp is the process CPU time per completed operation, in ms.
func (p *phase) cpuPerOp() float64 {
	return float64(p.cpu1-p.cpu0) / float64(time.Millisecond) / float64(max(p.ops, 1))
}

// gcFraction is the share of available CPU the collector used over the
// phase.
func (p *phase) gcFraction() float64 {
	return (p.rt1.gcCPU - p.rt0.gcCPU) / (p.rt1.totalCPU - p.rt0.totalCPU)
}

func (p *phase) allocsPerOp() (bytes, objects float64) {
	n := float64(max(p.ops, 1))
	return (p.rt1.allocBytes - p.rt0.allocBytes) / n, (p.rt1.allocObjects - p.rt0.allocObjects) / n
}

// liveHeapPerDoc is the live heap after a full collection divided by the
// documents the primary holds.
func (s *stage) liveHeapPerDoc() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(s.or.count())
}
