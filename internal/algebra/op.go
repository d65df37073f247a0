// Package algebra implements the algebraization sketched in Section 5.4
// of the paper: a complex-value algebra with variant-based selection over
// heterogeneous collections, and the (★) transformation that rewrites a
// calculus query with path and attribute variables into a union of
// variable-free plans, using schema analysis to find the candidate
// valuations.
//
// Plans are trees of operators that transform streams of valuations. A
// compiled plan is immutable after translation except for its guides'
// memo tables, which are protected by a lock, so one plan may serve any
// number of concurrent Run calls (each with its own Ctx). The
// decisive difference from naive calculus evaluation is the treatment of
// path predicates: instead of enumerating every concrete path from the
// base value (the naive interpretation of a path variable), the plan
// navigates only the schema-derived shapes that can satisfy the whole
// pattern — which is exactly why the restricted path semantics "can be
// implemented with efficient algebraic techniques" (Section 5.2).
//
// Within one Run, the row-at-a-time operators (select, bind, unnest,
// path-navigate, anti-join) can additionally partition their input rows
// across a bounded worker pool (Ctx.Workers); partitions are contiguous
// and results are concatenated in input order, so evaluation stays
// deterministic at any worker count.
package algebra

import (
	"fmt"
	"strings"
	"sync"

	"sgmldb/internal/calculus"
	"sgmldb/internal/object"
	"sgmldb/internal/text"
)

// Ctx carries the runtime context of one plan execution: the calculus
// environment (instance, interpreted functions; derive it with
// Env.WithContext to make the run cancellable), an optional full-text
// index used as an access path for contains predicates, and the size of
// the worker pool for intra-query parallel scans. A Ctx is used by one
// Run call; concurrent Runs each build their own.
type Ctx struct {
	Env   *calculus.Env
	Index *text.Index
	// Workers bounds intra-query parallelism: row-scan operators split
	// their input across up to Workers goroutines. Values <= 1 evaluate
	// serially. The split is deterministic (ordered merge), so results
	// are identical at any setting.
	Workers int

	// mu guards containsDocs: parallel scan partitions may race on it.
	mu sync.Mutex
	// containsDocs caches index evaluations per expression source.
	containsDocs map[string]map[object.OID]bool

	// pool is the shared worker-token channel bounding the query's total
	// goroutines across every parallel site (row scans, union branches);
	// see parallel.go. Built lazily once Workers is known.
	poolOnce sync.Once
	pool     chan struct{}
}

// NewCtx builds a serial runtime context; set Workers to enable parallel
// scans.
func NewCtx(env *calculus.Env) *Ctx {
	return &Ctx{Env: env, containsDocs: map[string]map[object.OID]bool{}}
}

// err reports the evaluation context's cancellation error, if any.
func (c *Ctx) err() error { return c.Env.Context().Err() }

// poll is the strided cancellation-and-budget check of the row-scan
// loops: one context read every ctxStride rows, charging the stride to
// the query's cost meter so a scan past its budget fails within one
// stride.
func (c *Ctx) poll(i int) error {
	if i%ctxStride != 0 {
		return nil
	}
	if err := c.err(); err != nil {
		return err
	}
	if i == 0 {
		// Nothing scanned yet here: just observe a trip from a sibling
		// partition or branch.
		return c.Env.Meter().Err()
	}
	return c.Env.Meter().Charge(ctxStride, 0)
}

// Op is one algebra operator: it produces valuations, consuming its
// input's valuations (nested-loops style, materialised).
//
//sgmldbvet:closed
type Op interface {
	Rows(ctx *Ctx) ([]calculus.Valuation, error)
	// explain appends an indented description of the operator subtree.
	explain(b *strings.Builder, indent int)
}

// Explain renders a plan tree for inspection.
func Explain(op Op) string {
	var b strings.Builder
	op.explain(&b, 0)
	return b.String()
}

func pad(b *strings.Builder, indent int) {
	for i := 0; i < indent; i++ {
		b.WriteString("  ")
	}
}

// startOp yields one empty valuation: the unit input.
type startOp struct{}

func (startOp) Rows(*Ctx) ([]calculus.Valuation, error) {
	return []calculus.Valuation{{}}, nil
}

func (startOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	b.WriteString("start\n")
}

// selectOp filters rows by a ground formula, delegating to the calculus
// evaluator (which also implements variant-based selection through
// implicit selectors).
type selectOp struct {
	in Op
	f  calculus.Formula
}

func (o *selectOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.mapRows(in, func(v calculus.Valuation) ([]calculus.Valuation, error) {
		return ctx.Env.EvalWith(o.f, []calculus.Valuation{v})
	})
}

func (o *selectOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "select %s\n", o.f)
	o.in.explain(b, indent+1)
}

// bindOp extends each row with x = t.
type bindOp struct {
	in Op
	x  string
	t  calculus.DataTerm
}

func (o *bindOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.mapRows(in, func(v calculus.Valuation) ([]calculus.Valuation, error) {
		val, err := ctx.Env.Term(o.t, v)
		if calculus.IsNoSuchPath(err) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		return []calculus.Valuation{v.Extend(o.x, calculus.DataBinding(val))}, nil
	})
}

func (o *bindOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "bind %s = %s\n", o.x, o.t)
	o.in.explain(b, indent+1)
}

// unnestOp extends each row with x ranging over the members of a
// collection term (the algebra's variant of quantifying over elements of a
// set or list).
type unnestOp struct {
	in   Op
	x    string
	coll calculus.DataTerm
}

func (o *unnestOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	// The outer set/list scan of a select-from-where plan: partitioned
	// across the worker pool, merged in input order.
	return ctx.mapRows(in, func(v calculus.Valuation) ([]calculus.Valuation, error) {
		val, err := ctx.Env.Term(o.coll, v)
		if calculus.IsNoSuchPath(err) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		var members []object.Value
		switch c := val.(type) {
		case *object.Set:
			members = c.Elems()
		case *object.List:
			members = c.Elems()
		case *object.Tuple:
			members = object.HeterogeneousList(c).Elems()
		default:
			return nil, nil
		}
		out := make([]calculus.Valuation, 0, len(members))
		for _, m := range members {
			out = append(out, v.Extend(o.x, calculus.DataBinding(m)))
		}
		return out, nil
	})
}

func (o *unnestOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "unnest %s in %s\n", o.x, o.coll)
	o.in.explain(b, indent+1)
}

// unionOp concatenates and deduplicates the rows of its children (the
// union of variable-free queries of the (★) transformation, and the
// translation of ∨).
type unionOp struct {
	children []Op
}

func (o *unionOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	outs := make([][]calculus.Valuation, len(o.children))
	errs := make([]error, len(o.children))
	if ctx.Workers > 1 && len(o.children) > 1 {
		// The branches are independent variable-free plans: fan them out
		// over the query's shared worker pool. A branch whose token
		// claim fails runs inline on this goroutine, so the union makes
		// progress even with the pool drained by sibling scans. Outputs
		// are concatenated in branch order below, so the result is the
		// serial result at any worker count; a budget trip or
		// cancellation in one branch stops the others at their next
		// strided poll, since every branch charges the same meter.
		pool := ctx.workerPool()
		var wg sync.WaitGroup
		for i := range o.children {
			if err := ctx.err(); err != nil {
				errs[i] = err
				break
			}
			select {
			case pool <- struct{}{}:
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { <-pool }()
					defer func() {
						if r := recover(); r != nil {
							errs[i] = calculus.Internal(r)
						}
					}()
					outs[i], errs[i] = o.children[i].Rows(ctx)
				}(i)
			default:
				outs[i], errs[i] = o.children[i].Rows(ctx)
			}
		}
		wg.Wait()
	} else {
		for i, c := range o.children {
			if err := ctx.err(); err != nil {
				errs[i] = err
				break
			}
			outs[i], errs[i] = c.Rows(ctx)
		}
	}
	var all []calculus.Valuation
	for i := range o.children {
		if errs[i] != nil {
			return nil, errs[i]
		}
		all = append(all, outs[i]...)
	}
	return ctx.dedup(all)
}

func (o *unionOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "union (%d branches)\n", len(o.children))
	for _, c := range o.children {
		c.explain(b, indent+1)
	}
}

// projectOp keeps only the given variables and deduplicates.
type projectOp struct {
	in   Op
	keep []calculus.VarDecl
}

func (o *projectOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]calculus.Valuation, 0, len(in))
	for i, v := range in {
		if err := ctx.poll(i); err != nil {
			return nil, err
		}
		row := calculus.Valuation{}
		for _, h := range o.keep {
			b, ok := v[h.Name]
			if !ok {
				return nil, fmt.Errorf("algebra: variable %s unbound at projection", h.Name)
			}
			row = row.Extend(h.Name, b)
		}
		out = append(out, row)
	}
	return ctx.dedup(out)
}

func (o *projectOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	names := make([]string, len(o.keep))
	for i, k := range o.keep {
		names[i] = k.Name
	}
	fmt.Fprintf(b, "project [%s]\n", strings.Join(names, ", "))
	o.in.explain(b, indent+1)
}

// dropOp removes quantified variables (∃ projection without reordering).
type dropOp struct {
	in   Op
	vars []calculus.VarDecl
}

func (o *dropOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]calculus.Valuation, 0, len(in))
	for i, v := range in {
		if err := ctx.poll(i); err != nil {
			return nil, err
		}
		out = append(out, v.Without(o.vars))
	}
	return ctx.dedup(out)
}

func (o *dropOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	names := make([]string, len(o.vars))
	for i, k := range o.vars {
		names[i] = k.Name
	}
	fmt.Fprintf(b, "drop [%s]\n", strings.Join(names, ", "))
	o.in.explain(b, indent+1)
}

// antiOp keeps rows for which the subplan (seeded with the row) is empty:
// the translation of safe negation.
type antiOp struct {
	in  Op
	sub calculus.Formula
}

func (o *antiOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	return ctx.mapRows(in, func(v calculus.Valuation) ([]calculus.Valuation, error) {
		sub, err := ctx.Env.EvalWith(o.sub, []calculus.Valuation{v})
		if err != nil {
			return nil, err
		}
		if len(sub) == 0 {
			return []calculus.Valuation{v}, nil
		}
		return nil, nil
	})
}

func (o *antiOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "anti-join ¬(%s)\n", o.sub)
	o.in.explain(b, indent+1)
}

// indexContainsOp filters rows whose variable holds an oid the full-text
// index holds (a document) using the index as an access path; every
// other value — a sub-document object, a string — falls back to text
// scanning.
type indexContainsOp struct {
	in   Op
	x    string
	expr text.Expr
}

func (o *indexContainsOp) Rows(ctx *Ctx) ([]calculus.Valuation, error) {
	in, err := o.in.Rows(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Index == nil {
		return ctx.Env.EvalWith(calculus.Contains{T: calculus.Var{Name: o.x}, E: o.expr}, in)
	}
	key := o.expr.String()
	ctx.mu.Lock()
	docs, ok := ctx.containsDocs[key]
	ctx.mu.Unlock()
	if !ok {
		docs = map[object.OID]bool{}
		for _, d := range ctx.Index.Eval(o.expr) {
			docs[object.OID(d)] = true
		}
		ctx.mu.Lock()
		ctx.containsDocs[key] = docs
		ctx.mu.Unlock()
	}
	var out []calculus.Valuation
	var fallback []calculus.Valuation
	for i, v := range in {
		if err := ctx.poll(i); err != nil {
			return nil, err
		}
		b := v[o.x]
		if oid, isOID := b.Data.(object.OID); isOID && ctx.Index.Has(text.DocID(oid)) {
			if docs[oid] {
				out = append(out, v)
			}
			continue
		}
		fallback = append(fallback, v)
	}
	if len(fallback) > 0 {
		rest, err := ctx.Env.EvalWith(calculus.Contains{T: calculus.Var{Name: o.x}, E: o.expr}, fallback)
		if err != nil {
			return nil, err
		}
		out = append(out, rest...)
	}
	return out, nil
}

func (o *indexContainsOp) explain(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "index-contains %s %s\n", o.x, o.expr)
	o.in.explain(b, indent+1)
}

// dedup removes duplicate valuations, polling cancellation as it scans
// (union results can be large).
func (c *Ctx) dedup(in []calculus.Valuation) ([]calculus.Valuation, error) {
	seen := map[string]bool{}
	out := make([]calculus.Valuation, 0, len(in))
	for i, v := range in {
		if err := c.poll(i); err != nil {
			return nil, err
		}
		k := v.Key()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}
