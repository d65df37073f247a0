package oql

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sgmldb/internal/algebra"
	"sgmldb/internal/calculus"
	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
)

// fpRecompile lets chaos tests fail a plan (re)compilation — the
// cache-miss path a schema change forces every cached plan through.
var fpRecompile = faultpoint.New("oql/plan-recompile")

// State is one published (instance, text index) pair: the consistent
// snapshot a query pins at entry. The facade publishes a new State after
// every successful load, so a query never sees an instance whose text
// index lags it (or vice versa).
type State struct {
	Snap  store.Snapshot
	Index *text.Index
}

// Engine executes O₂SQL queries over a calculus environment: parse →
// typecheck (Section 4.2) → lower to the calculus (Section 5.2) →
// evaluate, either naively or through the algebraization of Section 5.4.
//
// Concurrency: the query methods (Query, QueryContext, QueryBudget, Rows,
// Prepare and prepared Run/RunBudget) are safe for concurrent use. Every
// query pins the published State current at its start and evaluates
// entirely against it, so writers staging the next version never block
// or corrupt a reader. The configuration fields (UseAlgebra, MaxBranches,
// Workers, …) must not be changed while queries are in flight.
type Engine struct {
	Env *calculus.Env
	// state is the atomically published snapshot; its Index, when set,
	// serves as the full-text access path for contains.
	state atomic.Pointer[State]
	// UseAlgebra evaluates through the (★) algebra plans instead of the
	// naive calculus interpreter.
	UseAlgebra bool
	// SkipTypecheck disables the static Section 4.2 checks.
	SkipTypecheck bool
	// MaxBranches bounds the (★) expansion (0 = default).
	MaxBranches int
	// Workers bounds intra-query parallelism of algebra scans:
	// 0 uses GOMAXPROCS, 1 evaluates serially, n > 1 uses n goroutines.
	Workers int
	// PlanCacheSize bounds the plan cache (0 = DefaultPlanCacheSize). A
	// long-lived serving process sees unbounded query-text churn; the
	// cache keeps the hot plans and evicts the least recently used.
	PlanCacheSize int
	// Budget bounds each query's run-time cost (rows scanned, estimated
	// bytes materialised, wall-clock duration); the zero value is
	// unlimited. Every execution gets its own meter, so one query
	// exhausting its budget fails with calculus.ErrBudgetExceeded
	// without touching other in-flight queries.
	Budget calculus.Budget

	// planHits / planMisses count plan-cache lookups (a stale entry whose
	// schema moved counts as a miss). Served by /v1/stats; atomics because
	// every querying goroutine touches them.
	planHits   atomic.Uint64
	planMisses atomic.Uint64

	// mu guards the plan cache; queries from many goroutines share it.
	mu sync.RWMutex
	// plans memoises compiled algebra plans per query source, so repeated
	// queries pay the (★) analysis once. Entries record the schema
	// version they were compiled against and are recompiled when the
	// schema moves (a document load can add persistence roots, which
	// changes the candidate valuations of unbound variables). The cache
	// is a bounded LRU: entries is the by-source index into order, whose
	// front is the most recently used plan.
	plans struct {
		entries map[string]*list.Element
		order   list.List // of *planEntry
	}
}

// planEntry is one plan cache entry with its compilation version.
type planEntry struct {
	src     string
	plan    *algebra.Plan
	version uint64
}

// DefaultPlanCacheSize is the plan-cache bound when PlanCacheSize is 0.
const DefaultPlanCacheSize = 128

// New builds an engine over an environment and publishes the
// environment's instance with no text index. Callers that want an index
// Publish it together with the instance.
func New(env *calculus.Env) *Engine {
	e := &Engine{Env: env}
	var st State
	if env.Inst != nil {
		st.Snap = env.Inst.Snapshot()
	}
	e.Publish(st)
	return e
}

// Publish atomically installs a new (instance, index) state. In-flight
// queries finish against the state they pinned; queries starting after
// the call see the new one. The instance and index published must never
// be mutated again (the copy-on-write discipline: stage into fresh
// layers instead).
func (e *Engine) Publish(st State) { e.state.Store(&st) }

// State returns the currently published state.
func (e *Engine) State() State { return *e.state.Load() }

// pin captures the environment and index for one query: every evaluation
// step of the query uses this pair, so a load published mid-query is
// invisible to it.
func (e *Engine) pin() (*calculus.Env, *text.Index) {
	st := e.state.Load()
	return e.Env.WithInstance(st.Snap.Inst), st.Index
}

// schemaVersionOf reports the pinned schema's mutation counter (0 when
// the environment has no instance).
func schemaVersionOf(env *calculus.Env) uint64 {
	if env.Inst == nil {
		return 0
	}
	return env.Inst.Schema().Version()
}

// budgetEnv derives the per-execution environment carrying a fresh cost
// meter for the given budget; with no budget the environment is returned
// as is (nil meter, no-op charges).
func budgetEnv(env *calculus.Env, b calculus.Budget) *calculus.Env {
	if m := calculus.NewMeter(b); m != nil {
		return env.WithMeter(m)
	}
	return env
}

// workers resolves the Workers setting to a concrete pool size.
func (e *Engine) workers() int {
	if e.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// newCtx builds one plan-execution context over the pinned environment,
// carrying ctx for cancellation.
func (e *Engine) newCtx(ctx context.Context, env *calculus.Env, ix *text.Index) *algebra.Ctx {
	c := algebra.NewCtx(env.WithContext(ctx))
	c.Index = ix
	c.Workers = e.workers()
	return c
}

// Query parses, checks and evaluates a query, returning its value: a set
// for select-from-where and bare pattern queries, the computed value for
// other expressions.
func (e *Engine) Query(src string) (object.Value, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query under a context: evaluation observes ctx and
// returns its error promptly after cancellation.
func (e *Engine) QueryContext(ctx context.Context, src string) (object.Value, error) {
	return e.QueryBudget(ctx, src, e.Budget)
}

// QueryBudget is QueryContext under an explicit per-execution budget,
// replacing the engine-level Budget for this one call. The facade derives
// the effective budget from its per-call options and threads it through
// here; the zero budget is unlimited.
func (e *Engine) QueryBudget(ctx context.Context, src string, b calculus.Budget) (object.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	env, ix := e.pin()
	env = budgetEnv(env, b)
	ast, err := e.parseCheck(env, src)
	if err != nil {
		return nil, err
	}
	switch x := ast.(type) {
	case SelectExpr:
		res, err := e.runCached(ctx, env, ix, src, ast)
		if err != nil {
			return nil, err
		}
		return res.ToSet(), nil
	case PathExpr:
		if patternHasVars(x.Elems) {
			res, err := e.runCached(ctx, env, ix, src, ast)
			if err != nil {
				return nil, err
			}
			return res.ToSet(), nil
		}
		return e.value(ctx, env, ast)
	default:
		return e.value(ctx, env, ast)
	}
}

// Rows evaluates a select or pattern query under the engine budget and
// returns the raw result (head variables with their sorted bindings).
func (e *Engine) Rows(src string) (*calculus.Result, error) {
	env, ix := e.pin()
	env = budgetEnv(env, e.Budget)
	ast, err := e.parseCheck(env, src)
	if err != nil {
		return nil, err
	}
	return e.runCached(context.Background(), env, ix, src, ast)
}

// parseCheck parses the source and runs the static checks against the
// pinned schema.
func (e *Engine) parseCheck(env *calculus.Env, src string) (Expr, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if !e.SkipTypecheck && env.Inst != nil {
		if err := Typecheck(env.Inst.Schema(), ast); err != nil {
			return nil, err
		}
	}
	return ast, nil
}

// Lower exposes the calculus translation of a query (for inspection and
// for the benchmarks).
func (e *Engine) Lower(src string) (*calculus.Query, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	env, _ := e.pin()
	return Lower(ast, rootNamesOf(env))
}

// Plan exposes the algebra plan of a query.
func (e *Engine) Plan(src string) (*algebra.Plan, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	env, ix := e.pin()
	q, err := Lower(ast, rootNamesOf(env))
	if err != nil {
		return nil, err
	}
	return algebra.Translate(env, q, algebra.Options{Index: ix, MaxBranches: e.MaxBranches})
}

func rootNamesOf(env *calculus.Env) []string {
	if env.Inst == nil {
		return nil
	}
	return env.Inst.Schema().Roots()
}

// run lowers and evaluates a query expression against the pinned state.
func (e *Engine) run(ctx context.Context, env *calculus.Env, ix *text.Index, ast Expr) (*calculus.Result, error) {
	q, err := Lower(ast, rootNamesOf(env))
	if err != nil {
		return nil, err
	}
	if e.UseAlgebra {
		plan, err := algebra.Translate(env, q, algebra.Options{Index: ix, MaxBranches: e.MaxBranches})
		if err != nil {
			return nil, err
		}
		return plan.Run(e.newCtx(ctx, env, ix))
	}
	return env.EvalContext(ctx, q)
}

// runCached is run with plan caching keyed by the query source.
func (e *Engine) runCached(ctx context.Context, env *calculus.Env, ix *text.Index, src string, ast Expr) (*calculus.Result, error) {
	if !e.UseAlgebra {
		return e.run(ctx, env, ix, ast)
	}
	plan, err := e.cachedPlan(env, ix, src, ast)
	if err != nil {
		return nil, err
	}
	return plan.Run(e.newCtx(ctx, env, ix))
}

// cachedPlan returns the compiled plan for src, compiling (or recompiling,
// if the schema changed underneath the cached entry) outside the lock.
// Plans depend only on the schema — root *bindings* are resolved at run
// time — so a plan compiled against one schema version serves every
// instance version sharing that schema.
func (e *Engine) cachedPlan(env *calculus.Env, ix *text.Index, src string, ast Expr) (*algebra.Plan, error) {
	version := schemaVersionOf(env)
	if plan, ok := e.lookupPlan(src, version); ok {
		return plan, nil
	}
	if err := fpRecompile.Hit(); err != nil {
		return nil, err
	}
	q, err := Lower(ast, rootNamesOf(env))
	if err != nil {
		return nil, err
	}
	plan, err := algebra.Translate(env, q, algebra.Options{Index: ix, MaxBranches: e.MaxBranches})
	if err != nil {
		return nil, err
	}
	e.storePlan(src, plan, version)
	return plan, nil
}

// planCacheCap resolves the configured cache bound.
func (e *Engine) planCacheCap() int {
	if e.PlanCacheSize > 0 {
		return e.PlanCacheSize
	}
	return DefaultPlanCacheSize
}

// lookupPlan returns the cached plan for src if it was compiled against
// the current schema version, marking it most recently used. A stale
// entry (schema moved underneath it) is dropped so the recompiled plan
// re-enters at the front.
func (e *Engine) lookupPlan(src string, version uint64) (*algebra.Plan, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.plans.entries[src]
	if !ok {
		e.planMisses.Add(1)
		return nil, false
	}
	ent := el.Value.(*planEntry)
	if ent.version != version {
		e.plans.order.Remove(el)
		delete(e.plans.entries, src)
		e.planMisses.Add(1)
		return nil, false
	}
	e.plans.order.MoveToFront(el)
	e.planHits.Add(1)
	return ent.plan, true
}

// PlanCacheStats reports cumulative plan-cache lookups: hits served from
// the cache and misses that forced a (re)compilation.
func (e *Engine) PlanCacheStats() (hits, misses uint64) {
	return e.planHits.Load(), e.planMisses.Load()
}

// storePlan inserts (or refreshes) a compiled plan at the front of the
// LRU order, evicting from the back beyond the cache bound.
func (e *Engine) storePlan(src string, plan *algebra.Plan, version uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.plans.entries == nil {
		e.plans.entries = map[string]*list.Element{}
	}
	if el, ok := e.plans.entries[src]; ok {
		ent := el.Value.(*planEntry)
		ent.plan, ent.version = plan, version
		e.plans.order.MoveToFront(el)
		return
	}
	e.plans.entries[src] = e.plans.order.PushFront(&planEntry{src: src, plan: plan, version: version})
	for e.plans.order.Len() > e.planCacheCap() {
		back := e.plans.order.Back()
		e.plans.order.Remove(back)
		delete(e.plans.entries, back.Value.(*planEntry).src)
	}
}

// PlanCacheLen reports the number of cached plans.
func (e *Engine) PlanCacheLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.plans.order.Len()
}

// planCacheKeys lists the cached query sources in recency order (most
// recent first); test hook.
func (e *Engine) planCacheKeys() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []string
	for el := e.plans.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*planEntry).src)
	}
	return out
}

// Prepared is a query whose front-end work — parsing, typechecking,
// lowering to the calculus and (in algebra mode) plan compilation — has
// been done once. Run and Rows replay only the evaluation. A Prepared is
// safe for concurrent use; it recompiles its plan transparently if the
// schema has changed since preparation (e.g. after a document load).
type Prepared struct {
	engine *Engine
	src    string
	ast    Expr
	bare   bool // bare expression: evaluated directly, no row form

	mu      sync.RWMutex
	lowered *calculus.Query
	plan    *algebra.Plan // nil in naive-calculus mode
	version uint64
}

// Prepare parses, typechecks and compiles a query for repeated execution.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	env, ix := e.pin()
	ast, err := e.parseCheck(env, src)
	if err != nil {
		return nil, err
	}
	p := &Prepared{engine: e, src: src, ast: ast}
	switch x := ast.(type) {
	case SelectExpr:
	case PathExpr:
		if !patternHasVars(x.Elems) {
			p.bare = true
			return p, nil
		}
	default:
		p.bare = true
		return p, nil
	}
	if err := p.compile(env, ix, schemaVersionOf(env)); err != nil {
		return nil, err
	}
	return p, nil
}

// compile (re)lowers the query and, in algebra mode, rebuilds its plan,
// recording the schema version it compiled against.
func (p *Prepared) compile(env *calculus.Env, ix *text.Index, version uint64) error {
	_, _, err := p.recompile(env, ix, version)
	return err
}

// recompile does the compile work under the statement lock: the lowerer
// rewrites the shared AST in place, so two racing executions must not
// lower it concurrently. The double-check under the lock makes the loser
// of the race reuse the winner's result instead of redoing it.
func (p *Prepared) recompile(env *calculus.Env, ix *text.Index, version uint64) (*calculus.Query, *algebra.Plan, error) {
	e := p.engine
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lowered != nil && p.version == version && (p.plan != nil) == e.UseAlgebra {
		return p.lowered, p.plan, nil
	}
	if err := fpRecompile.Hit(); err != nil {
		return nil, nil, err
	}
	q, err := Lower(p.ast, rootNamesOf(env))
	if err != nil {
		return nil, nil, err
	}
	var plan *algebra.Plan
	if e.UseAlgebra {
		plan, err = algebra.Translate(env, q, algebra.Options{Index: ix, MaxBranches: e.MaxBranches})
		if err != nil {
			return nil, nil, err
		}
	}
	p.lowered, p.plan, p.version = q, plan, version
	return q, plan, nil
}

// Source returns the query text the statement was prepared from.
func (p *Prepared) Source() string { return p.src }

// Run evaluates the prepared query and returns its value, like
// Engine.QueryContext but without re-doing the front-end work.
func (p *Prepared) Run(ctx context.Context) (object.Value, error) {
	return p.RunBudget(ctx, p.engine.Budget)
}

// RunBudget is Run under an explicit per-execution budget (see
// Engine.QueryBudget).
func (p *Prepared) RunBudget(ctx context.Context, b calculus.Budget) (object.Value, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if p.bare {
		env, _ := p.engine.pin()
		return p.engine.value(ctx, budgetEnv(env, b), p.ast)
	}
	res, err := p.rows(ctx, b)
	if err != nil {
		return nil, err
	}
	return res.ToSet(), nil
}

func (p *Prepared) rows(ctx context.Context, b calculus.Budget) (*calculus.Result, error) {
	e := p.engine
	env, ix := e.pin()
	env = budgetEnv(env, b)
	version := schemaVersionOf(env)
	p.mu.RLock()
	q, plan := p.lowered, p.plan
	fresh := q != nil && p.version == version && (plan != nil) == e.UseAlgebra
	p.mu.RUnlock()
	if !fresh {
		// The schema moved since compilation (a document load can add
		// persistence roots, changing the candidate valuations of unbound
		// variables), or the engine's evaluation mode was switched:
		// recompile against the current state.
		var err error
		q, plan, err = p.recompile(env, ix, version)
		if err != nil {
			return nil, err
		}
	}
	if plan == nil {
		return env.EvalContext(ctx, q)
	}
	return plan.Run(e.newCtx(ctx, env, ix))
}

// value evaluates a bare (non-select) expression directly. A path step
// that does not apply to a named instance surfaces as the execution-time
// type error of Section 4.2 ("my_section.subsectns will return a type
// error detected at execution time").
func (e *Engine) value(ctx context.Context, env *calculus.Env, ast Expr) (object.Value, error) {
	lw := &lowerer{}
	if roots := rootNamesOf(env); roots != nil {
		lw.roots = map[string]bool{}
		for _, r := range roots {
			lw.roots[r] = true
		}
	}
	t, err := lw.term(ast, scope{})
	if err != nil {
		return nil, err
	}
	v, err := env.WithContext(ctx).Term(t, calculus.Valuation{})
	if calculus.IsNoSuchPath(err) {
		return nil, fmt.Errorf("%w: execution-time: %w", ErrTypecheck, err)
	}
	return v, err
}
