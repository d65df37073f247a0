package sgmldb

// The benchmark harness of EXPERIMENTS.md: one benchmark family per
// experiment row. The paper has no performance tables; these benchmarks
// quantify its performance *claims*:
//
//	B1 restricted path semantics "can be implemented with efficient
//	   algebraic techniques" (naive calculus vs (★) algebra plans)
//	B2 full-text indexing integration (contains by scan vs inverted index)
//	B3 restricted vs liberal path semantics (schema-bounded vs
//	   data-bounded enumeration with loop detection)
//	B4 the storage cost of the mapping and load throughput
//	B5 union-type expansion ("combinatorial explosion … should rarely
//	   happen"): (★) branch counts under growing union fan-out
//	B6 algebra operator microbenchmarks
//	B7 the paper's queries Q1–Q6 end to end
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"fmt"
	"testing"

	"sgmldb/internal/algebra"
	"sgmldb/internal/calculus"
	"sgmldb/internal/corpus"
	"sgmldb/internal/object"
	"sgmldb/internal/oql"
	"sgmldb/internal/path"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// benchDB caches corpora across benchmarks (building is itself B4).
var benchDBs = map[string]*corpus.Database{}

func articlesDB(b *testing.B, docs int) *corpus.Database {
	b.Helper()
	key := fmt.Sprintf("articles-%d", docs)
	if db, ok := benchDBs[key]; ok {
		return db
	}
	db, err := corpus.BuildArticles(corpus.Params{Docs: docs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchDBs[key] = db
	return db
}

func lettersDB(b *testing.B, docs int) *corpus.Database {
	b.Helper()
	key := fmt.Sprintf("letters-%d", docs)
	if db, ok := benchDBs[key]; ok {
		return db
	}
	db, err := corpus.BuildLetters(corpus.Params{Docs: docs, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchDBs[key] = db
	return db
}

func engineFor(db *corpus.Database, algebraMode bool, withIndex bool) *oql.Engine {
	e := oql.New(db.Env)
	e.UseAlgebra = algebraMode
	if withIndex {
		e.Index = db.Index
	}
	return e
}

func runQuery(b *testing.B, e *oql.Engine, q string) object.Value {
	b.Helper()
	v, err := e.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// ---------------------------------------------------------------- B1 ----

// BenchmarkAlgebraizationNaive and …Algebra evaluate the same
// path-variable query (Q3's shape over the whole corpus): the naive
// calculus interprets the path variable by enumerating every concrete
// path; the algebra navigates only the schema-derived candidate shapes.
func BenchmarkAlgebraization(b *testing.B) {
	const q = `select t from a in Articles, a PATH_p.title(t)`
	for _, docs := range []int{2, 6, 12} {
		db := articlesDB(b, docs)
		b.Run(fmt.Sprintf("Naive/docs=%d", docs), func(b *testing.B) {
			e := engineFor(db, false, false)
			lowered, err := e.Lower(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Env.Eval(lowered); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("Algebra/docs=%d", docs), func(b *testing.B) {
			e := engineFor(db, true, false)
			plan, err := e.Plan(q)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := algebra.NewCtx(db.Env)
				if _, err := plan.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Ablation: the same compiled plan with the satisfiability
		// pruning disabled isolates the contribution of the (★) analysis.
		b.Run(fmt.Sprintf("AlgebraNoPrune/docs=%d", docs), func(b *testing.B) {
			e := engineFor(db, true, false)
			lowered, err := e.Lower(q)
			if err != nil {
				b.Fatal(err)
			}
			plan, err := algebra.Translate(db.Env, lowered, algebra.Options{NoPrune: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := algebra.NewCtx(db.Env)
				if _, err := plan.Run(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------- B2 ----

// BenchmarkContains compares contains evaluated by scanning document text
// against the inverted-index access path. w0000 is the most frequent
// Zipf word (low selectivity), w0400 a rare one (high selectivity).
func BenchmarkContains(b *testing.B) {
	db := articlesDB(b, 12)
	for _, word := range []string{"w0000", "w0400"} {
		q := fmt.Sprintf(`select a from a in Articles where a contains "%s"`, word)
		b.Run("Scan/"+word, func(b *testing.B) {
			e := engineFor(db, false, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
		b.Run("Index/"+word, func(b *testing.B) {
			e := engineFor(db, true, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
	}
}

// BenchmarkPatternEngine measures the from-scratch NFA against the
// pathological pattern that ruins backtracking engines.
func BenchmarkPatternEngine(b *testing.B) {
	pat := text.MustCompile("(a|b)*abb")
	input := ""
	for i := 0; i < 256; i++ {
		input += "ab"
	}
	input += "abb"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !pat.Match(input) {
			b.Fatal("must match")
		}
	}
}

// ---------------------------------------------------------------- B3 ----

// chainInstance builds a linked list of n Node objects with a back
// pointer, giving the liberal semantics a data-bounded path space and the
// restricted semantics a schema-bounded one.
func chainInstance(b *testing.B, n int) (*store.Instance, object.OID) {
	b.Helper()
	s := store.NewSchema()
	if err := s.AddClass("Node", object.TupleOf(
		object.TField{Name: "label", Type: object.StringType},
		object.TField{Name: "next", Type: object.Class("Node")},
	)); err != nil {
		b.Fatal(err)
	}
	if err := s.AddRoot("Head", object.Class("Node")); err != nil {
		b.Fatal(err)
	}
	in := store.NewInstance(s)
	oids := make([]object.OID, n)
	for i := 0; i < n; i++ {
		o, err := in.NewObject("Node", object.Nil{})
		if err != nil {
			b.Fatal(err)
		}
		oids[i] = o
	}
	for i := 0; i < n; i++ {
		next := object.Value(object.Nil{})
		if i+1 < n {
			next = oids[i+1]
		} else {
			next = oids[0] // cycle back
		}
		if err := in.SetValue(oids[i], object.NewTuple(
			object.Field{Name: "label", Value: object.String_(fmt.Sprintf("n%d", i))},
			object.Field{Name: "next", Value: next},
		)); err != nil {
			b.Fatal(err)
		}
	}
	if err := in.SetRoot("Head", oids[0]); err != nil {
		b.Fatal(err)
	}
	return in, oids[0]
}

// BenchmarkPathSemantics contrasts the restricted semantics (paths bounded
// by the schema: Node dereferenced once) with the liberal semantics
// (paths bounded by the data: the whole cycle, with loop detection).
func BenchmarkPathSemantics(b *testing.B) {
	for _, n := range []int{8, 64} {
		in, head := chainInstance(b, n)
		for _, sem := range []path.Semantics{path.Restricted, path.Liberal} {
			b.Run(fmt.Sprintf("%s/nodes=%d", sem, n), func(b *testing.B) {
				var count int
				for i := 0; i < b.N; i++ {
					count = len(path.Enumerate(in, head, path.Options{Semantics: sem}))
				}
				b.ReportMetric(float64(count), "paths")
			})
		}
	}
}

// ---------------------------------------------------------------- B4 ----

// BenchmarkLoad measures parse+map+load throughput and reports the
// storage overhead of the mapping (instance bytes per raw SGML byte) —
// the Section 3 "extra cost in storage".
func BenchmarkLoad(b *testing.B) {
	for _, docs := range []int{5, 20} {
		b.Run(fmt.Sprintf("docs=%d", docs), func(b *testing.B) {
			var db *corpus.Database
			var err error
			for i := 0; i < b.N; i++ {
				db, err = corpus.BuildArticles(corpus.Params{Docs: docs, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
			}
			st := db.Loader.Instance.Stats()
			b.ReportMetric(float64(st.Objects), "objects")
			b.ReportMetric(float64(st.ValueBytes)/float64(db.RawBytes), "overhead×")
			b.SetBytes(int64(db.RawBytes))
		})
	}
}

// BenchmarkSnapshot measures round trips of the on-disk image — the
// checkpoint codec Save and OpenSnapshot use — through memory.
func BenchmarkSnapshot(b *testing.B) {
	db := articlesDB(b, 10)
	ck := &wal.Checkpoint{DTD: corpus.ArticleDTD, Inst: db.Loader.Instance, Index: db.Index}
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := wal.EncodeCheckpoint(&buf, ck); err != nil {
			b.Fatal(err)
		}
		if _, err := wal.DecodeCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- B5 ----

// BenchmarkUnionExpansion measures the (★) branch count as union fan-out
// grows: the paper's "combinatorial explosion of types" controlled by the
// MaxBranches guard. The reported branches metric is the cost driver.
func BenchmarkUnionExpansion(b *testing.B) {
	for _, fanout := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			env := unionSchemaEnv(b, fanout)
			q := &calculus.Query{
				Head: []calculus.VarDecl{{Name: "X", Sort: calculus.SortData}},
				Body: calculus.Exists{
					Vars: []calculus.VarDecl{{Name: "P", Sort: calculus.SortPath}},
					Body: calculus.PathAtom{
						Base: calculus.NameRef{Name: "Root"},
						Path: calculus.P(
							calculus.ElemVar{Name: "P"},
							calculus.ElemAttr{A: calculus.AttrName{Name: "leaf"}},
							calculus.ElemBind{X: "X"},
						),
					},
				},
			}
			var branches int
			for i := 0; i < b.N; i++ {
				plan, err := algebra.Translate(env, q, algebra.Options{MaxBranches: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				branches = plan.Branches
			}
			b.ReportMetric(float64(branches), "branches")
		})
	}
}

// unionSchemaEnv builds a schema whose root type nests two levels of
// k-way unions ending in a leaf attribute.
func unionSchemaEnv(b *testing.B, k int) *calculus.Env {
	b.Helper()
	s := store.NewSchema()
	inner := make([]object.TField, k)
	for i := range inner {
		// Distinct alternative types: each carries its own marker field
		// beside the common leaf, so the candidate space grows with the
		// fan-out.
		inner[i] = object.TField{Name: fmt.Sprintf("i%d", i), Type: object.TupleOf(
			object.TField{Name: "leaf", Type: object.StringType},
			object.TField{Name: fmt.Sprintf("tag%d", i), Type: object.IntType},
		)}
	}
	innerU := object.UnionOf(inner...)
	outer := make([]object.TField, k)
	for i := range outer {
		outer[i] = object.TField{Name: fmt.Sprintf("o%d", i),
			Type: object.TupleOf(object.TField{Name: "child", Type: innerU})}
	}
	if err := s.AddRoot("Root", object.UnionOf(outer...)); err != nil {
		b.Fatal(err)
	}
	in := store.NewInstance(s)
	_ = in.SetRoot("Root", object.NewUnion("o0", object.NewTuple(
		object.Field{Name: "child", Value: object.NewUnion("i0", object.NewTuple(
			object.Field{Name: "leaf", Value: object.String_("x")},
			object.Field{Name: "tag0", Value: object.Int(0)},
		))},
	)))
	return calculus.NewEnv(in)
}

// ---------------------------------------------------------------- B6 ----

// BenchmarkAlgebraOps microbenchmarks the distinctive operators: variant
// selection through implicit selectors (sections of either union branch)
// and heterogeneous-list unnesting (Q6's tuple-as-list view).
func BenchmarkAlgebraOps(b *testing.B) {
	db := articlesDB(b, 8)
	b.Run("VariantSelect", func(b *testing.B) {
		e := engineFor(db, true, false)
		const q = `select ss from a in Articles, s in a.sections, ss in s.subsectns`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runQuery(b, e, q)
		}
	})
	b.Run("HeterogeneousUnnest", func(b *testing.B) {
		ldb := lettersDB(b, 16)
		e := engineFor(ldb, true, false)
		const q = `
select letter
from letter in Letters, from(i) in letter.preamble, to(j) in letter.preamble
where i < j`
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runQuery(b, e, q)
		}
	})
	b.Run("PathEnumeration", func(b *testing.B) {
		inst := db.Loader.Instance
		doc := db.Loader.Documents()[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			path.Enumerate(inst, doc, path.Options{})
		}
	})
}

// ---------------------------------------------------------------- B7 ----

// BenchmarkQ1 through BenchmarkQ6 run the paper's own queries end to end
// over the synthetic corpus, under both evaluators.
func benchBoth(b *testing.B, db *corpus.Database, q string, withIndex bool) {
	for _, mode := range []struct {
		name    string
		algebra bool
	}{{"Naive", false}, {"Algebra", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := engineFor(db, mode.algebra, withIndex)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runQuery(b, e, q)
			}
		})
	}
}

func BenchmarkQ1(b *testing.B) {
	db := articlesDB(b, 8)
	benchBoth(b, db, `
select tuple (t: a.title, f_author: first(a.authors))
from a in Articles, s in a.sections
where s.title contains ("Section" and "w0000")`, true)
}

func BenchmarkQ2(b *testing.B) {
	db := articlesDB(b, 8)
	benchBoth(b, db, `
select ss from a in Articles, s in a.sections, ss in s.subsectns
where ss contains "w0001"`, true)
}

func BenchmarkQ3(b *testing.B) {
	db := articlesDB(b, 4)
	// Name the first document for the single-article queries.
	nameFirst(b, db, "my_article")
	benchBoth(b, db, `select t from my_article PATH_p.title(t)`, false)
}

func BenchmarkQ4(b *testing.B) {
	db := articlesDB(b, 4)
	nameFirst(b, db, "my_article")
	docs := db.Loader.Documents()
	if err := nameDoc(db, "my_old_article", docs[1]); err != nil {
		b.Fatal(err)
	}
	e := engineFor(db, false, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runQuery(b, e, `my_article PATH_p - my_old_article PATH_p`)
	}
}

func BenchmarkQ5(b *testing.B) {
	db := articlesDB(b, 4)
	nameFirst(b, db, "my_article")
	benchBoth(b, db, `
select name(ATT_a)
from my_article PATH_p.ATT_a(val)
where val contains ("final")`, false)
}

func BenchmarkQ6(b *testing.B) {
	db := lettersDB(b, 16)
	benchBoth(b, db, `
select letter
from letter in Letters, from(i) in letter.preamble, to(j) in letter.preamble
where i < j`, false)
}

func nameFirst(b *testing.B, db *corpus.Database, name string) {
	b.Helper()
	if err := nameDoc(db, name, db.Loader.Documents()[0]); err != nil {
		b.Fatal(err)
	}
}

func nameDoc(db *corpus.Database, name string, oid object.OID) error {
	schema := db.Loader.Instance.Schema()
	class, _ := db.Loader.Instance.ClassOf(oid)
	if _, ok := schema.RootType(name); !ok {
		if err := schema.AddRoot(name, object.Class(class)); err != nil {
			return err
		}
	}
	return db.Loader.Instance.SetRoot(name, oid)
}
