package oql

import (
	"os"
	"strings"
	"testing"

	"sgmldb/internal/calculus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/object"
	"sgmldb/internal/sgml"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
)

// articleWithSubsections is a Figure 2 style article whose second section
// carries subsections (for Q2).
const articleWithSubsections = `<article status="draft">
<title>Querying Documents in Object Databases</title>
<author>B. Amann
<affil>Cedric/CNAM
<abstract>We study complex object storage for structured text.
<section><title>Background</title>
<body><paragr>Databases keep growing.</body>
</section>
<section><title>The Model</title>
<subsectn><title>Values</title>
<body><paragr>A complex object is built from tuples and lists.</body>
</subsectn>
<subsectn><title>Types</title>
<body><paragr>Union types mark alternatives.</body>
</subsectn>
</section>
<acknowl>Thanks to the Verso group.
</article>`

// articleEngine loads the Figure 1 DTD with the Figure 2 article plus the
// subsectioned article, declares my_article / my_old_article roots, wires
// the text() operator and a full-text index.
func articleEngine(t *testing.T) *Engine {
	t.Helper()
	dtdSrc, err := os.ReadFile("../../testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	dtd, err := sgml.ParseDTD(string(dtdSrc))
	if err != nil {
		t.Fatal(err)
	}
	m, err := dtdmap.MapDTD(dtd)
	if err != nil {
		t.Fatal(err)
	}
	loader := dtdmap.NewLoader(m)
	fig2, err := os.ReadFile("../../testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	doc1, err := sgml.ParseDocument(dtd, string(fig2))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := loader.Load(doc1)
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := sgml.ParseDocument(dtd, articleWithSubsections)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := loader.Load(doc2)
	if err != nil {
		t.Fatal(err)
	}
	inst := loader.Instance
	schema := inst.Schema()
	for _, r := range []struct {
		name string
		oid  object.OID
	}{{"my_article", a2}, {"my_old_article", a1}} {
		if err := schema.AddRoot(r.name, object.Class("Article")); err != nil {
			t.Fatal(err)
		}
		if err := inst.SetRoot(r.name, r.oid); err != nil {
			t.Fatal(err)
		}
	}
	if errs := inst.Check(); len(errs) != 0 {
		t.Fatalf("fixture invalid: %v", errs)
	}
	env := calculus.NewEnv(inst)
	env.TextOf = dtdmap.TextOf
	ix := text.NewIndex()
	for _, o := range inst.Objects() {
		ix.Add(text.DocID(o), dtdmap.TextOf(inst, o))
	}
	e := New(env)
	e.Publish(State{Snap: inst.Snapshot(), Index: ix})
	return e
}

// bothEngines runs the test body with the naive and the algebraic
// evaluator.
func bothEngines(t *testing.T, e *Engine, body func(t *testing.T, e *Engine)) {
	t.Helper()
	withMode := func(on bool) *Engine {
		e2 := New(e.Env)
		e2.Publish(e.State())
		e2.SkipTypecheck = e.SkipTypecheck
		e2.MaxBranches = e.MaxBranches
		e2.UseAlgebra = on
		return e2
	}
	t.Run("naive", func(t *testing.T) {
		body(t, withMode(false))
	})
	t.Run("algebra", func(t *testing.T) {
		body(t, withMode(true))
	})
}

func asSet(t *testing.T, v object.Value) *object.Set {
	t.Helper()
	s, ok := v.(*object.Set)
	if !ok {
		t.Fatalf("result is %T, not a set: %s", v, v)
	}
	return s
}

// TestQ1 reproduces query Q1: titles and first authors of articles having
// a section whose title contains "SGML" and "OODBMS".
func TestQ1(t *testing.T) {
	e := articleEngine(t)
	// Make the fixture discriminating: the Figure 2 article's first
	// section title is "Introduction"; none contains both words. Query on
	// the abstract-level words present in the corpus instead, then the
	// paper's exact pattern.
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`
select tuple (t: a.title, f_author: first(a.authors))
from a in Articles, s in a.sections
where s.title contains ("SGML" and "preliminaries")`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		if s.Len() != 1 {
			t.Fatalf("Q1 = %s", s)
		}
		row := s.At(0).(*object.Tuple)
		title, _ := row.Get("t")
		// The projection dereferences: a.title is a Title object; its text
		// is reachable via text(); the oid itself is returned.
		if title.Kind() != object.KindOID {
			t.Errorf("t = %s", title)
		}
		fa, _ := row.Get("f_author")
		if fa.Kind() != object.KindOID {
			t.Errorf("f_author = %s", fa)
		}
		// No article has a section title with both SGML and OODBMS.
		empty, err := e.Query(`
select a from a in Articles, s in a.sections
where s.title contains ("SGML" and "OODBMS")`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, empty).Len() != 0 {
			t.Errorf("expected empty, got %s", empty)
		}
	})
}

// TestQ2 reproduces query Q2: subsections of articles containing the
// sentence "complex object" — the contains operates on complex logical
// objects through the text operator, and the subsectns attribute exists
// only in the a2 alternative of the Section union (implicit selectors).
func TestQ2(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`
select ss
from a in Articles, s in a.sections, ss in s.subsectns
where ss contains "complex object"`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		if s.Len() != 1 {
			t.Fatalf("Q2 = %s", s)
		}
		oid := s.At(0).(object.OID)
		if txt := e.Env.TextOf(e.Env.Inst, oid); !strings.Contains(txt, "complex object") {
			t.Errorf("subsection text = %q", txt)
		}
	})
}

// TestQ3 reproduces query Q3: all titles in my_article, reached by every
// path.
func TestQ3(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`select t from my_article PATH_p.title(t)`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		// my_article: 1 article title + 2 section titles + 2 subsection
		// titles = 5 Title objects (each both as oid and as content value
		// depending on path shape; titles are objects so 5 oids).
		var texts []string
		for i := 0; i < s.Len(); i++ {
			if o, ok := s.At(i).(object.OID); ok {
				texts = append(texts, e.Env.TextOf(e.Env.Inst, o))
			}
		}
		want := []string{"Querying Documents in Object Databases", "Background",
			"The Model", "Values", "Types"}
		for _, w := range want {
			found := false
			for _, txt := range texts {
				if txt == w {
					found = true
				}
			}
			if !found {
				t.Errorf("Q3 missing title %q in %v", w, texts)
			}
		}
		// The ".." sugared form gives the same result set.
		sugared, err := e.Query(`select t from my_article .. title(t)`)
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(got, sugared) {
			t.Error("'..' sugar must behave like an anonymous path variable")
		}
	})
}

// TestQ4 reproduces query Q4: the structural difference between two
// versions of my_article as a difference of path sets.
func TestQ4(t *testing.T) {
	e := articleEngine(t)
	// Q4 is a bare expression; evaluated through the naive engine.
	got, err := e.Query(`my_article PATH_p - my_old_article PATH_p`)
	if err != nil {
		t.Fatal(err)
	}
	s := asSet(t, got)
	if s.Len() == 0 {
		t.Fatal("the new version must contribute new paths")
	}
	// Every member is a path value; the subsection structure appears.
	sawSubsectn := false
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		if _, ok := p.(*object.List); !ok {
			t.Fatalf("non-path member %s", p)
		}
		if strings.Contains(p.String(), "subsectns") {
			sawSubsectn = true
		}
	}
	if !sawSubsectn {
		t.Error("difference must expose the new subsectns structure")
	}
	// The reverse difference also exists (old paths not in the new one).
	rev, err := e.Query(`my_old_article PATH_p - my_article PATH_p`)
	if err != nil {
		t.Fatal(err)
	}
	if asSet(t, rev).Len() == 0 {
		t.Error("old version has its own paths")
	}
}

// TestQ5 reproduces query Q5: the attributes whose value contains "final"
// — "search operations like Unix grep inside an OODBMS". In the loaded
// corpus only the Figure 2 article (my_old_article) has status "final".
func TestQ5(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`
select name(ATT_a)
from my_old_article PATH_p.ATT_a(val)
where val contains ("final")`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		found := false
		for i := 0; i < s.Len(); i++ {
			if object.Equal(s.At(i), object.String_("status")) {
				found = true
			}
		}
		if !found {
			t.Errorf("Q5 must find the status attribute, got %s", s)
		}
		// my_article is a draft: no attribute contains "final".
		got2, err := e.Query(`
select name(ATT_a)
from my_article PATH_p.ATT_a(val)
where val contains ("final")`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got2).Len() != 0 {
			t.Errorf("draft article must yield nothing, got %s", got2)
		}
	})
}

// lettersEngine loads the Section 4.4 letters database via the "&"
// connector mapping.
func lettersEngine(t *testing.T) *Engine {
	t.Helper()
	dtd, err := sgml.ParseDTD(`
<!ELEMENT letter - - (preamble, content)>
<!ELEMENT preamble - O (to & from)>
<!ELEMENT to - O (#PCDATA)>
<!ELEMENT from - O (#PCDATA)>
<!ELEMENT content - O (#PCDATA)>`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dtdmap.MapDTD(dtd)
	if err != nil {
		t.Fatal(err)
	}
	loader := dtdmap.NewLoader(m)
	for _, src := range []string{
		`<letter><preamble><to>Alice<from>Bob</preamble><content>to first</letter>`,
		`<letter><preamble><from>Carol<to>Dan</preamble><content>from first</letter>`,
		`<letter><preamble><to>Erin<from>Frank</preamble><content>to first again</letter>`,
	} {
		doc, err := sgml.ParseDocument(dtd, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := loader.Load(doc); err != nil {
			t.Fatal(err)
		}
	}
	inst := loader.Instance
	env := calculus.NewEnv(inst)
	env.TextOf = dtdmap.TextOf
	return New(env)
}

// TestQ6 reproduces query Q6: letters where the sender precedes the
// recipient in the preamble, via position bindings over the ordered tuple
// viewed as a heterogeneous list.
func TestQ6(t *testing.T) {
	e := lettersEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`
select letter
from letter in Letters, from(i) in letter.preamble, to(j) in letter.preamble
where i < j`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		if s.Len() != 1 {
			t.Fatalf("Q6 = %s", s)
		}
		// The matching letter is the Carol→Dan one (from precedes to).
		oid := s.At(0).(object.OID)
		txt := e.Env.TextOf(e.Env.Inst, oid)
		if !strings.Contains(txt, "Carol") {
			t.Errorf("Q6 letter text = %q", txt)
		}
		// And the symmetric query finds the other two.
		rev, err := e.Query(`
select letter
from letter in Letters, from(i) in letter.preamble, to(j) in letter.preamble
where j < i`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, rev).Len() != 2 {
			t.Errorf("reverse Q6 = %s", rev)
		}
	})
}

func TestBarePatternQuery(t *testing.T) {
	e := articleEngine(t)
	// Point 3 of Section 4.3: my_article PATH_p.title is a query returning
	// the set of paths to a title field.
	got, err := e.Query(`my_article PATH_p.title`)
	if err != nil {
		t.Fatal(err)
	}
	s := asSet(t, got)
	if s.Len() < 5 {
		t.Errorf("paths to titles = %s", s)
	}
}

func TestExecutionTimeTypeError(t *testing.T) {
	e := articleEngine(t)
	// my_old_article's sections are all marked a1: accessing subsectns on
	// the named instance is the paper's execution-time type error.
	_, err := e.Query(`my_old_article.sections[0].subsectns`)
	if err == nil || !strings.Contains(err.Error(), "type error") {
		t.Errorf("expected execution-time type error, got %v", err)
	}
	// Plain navigation works.
	v, err := e.Query(`my_old_article.sections[0].title`)
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind() != object.KindOID {
		t.Errorf("title = %s", v)
	}
}

func TestStaticTypeErrors(t *testing.T) {
	e := articleEngine(t)
	cases := []string{
		`select a from a in Articles where a.nosuchattr = 1`, // unknown attribute
		`Articles union set(1, 2)`,                           // union vs int set: no common supertype
		`set(1, "x")`,                                        // constructor members must join
		// Note: "a in my_old_article.title" is NOT an error — the Title
		// object's tuple value is a heterogeneous list (Section 4.4). An
		// integer, though, is no collection:
		`select x from x in length(my_article.sections)`,
		`nosuchroot`, // unknown name
		`select a from a in Articles where a.status contains "x" and 1 = "y"`, // incomparable
	}
	for _, src := range cases {
		if _, err := e.Query(src); err == nil {
			t.Errorf("query %q must be rejected", src)
		}
	}
}

func TestSetOperationsAndFunctions(t *testing.T) {
	e := articleEngine(t)
	v, err := e.Query(`set(1, 2, 3) intersect set(2, 3, 4)`)
	if err != nil {
		t.Fatal(err)
	}
	if asSet(t, v).Len() != 2 {
		t.Errorf("intersect = %s", v)
	}
	v, err = e.Query(`set(1, 2) union set(2, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if asSet(t, v).Len() != 3 {
		t.Errorf("union = %s", v)
	}
	v, err = e.Query(`set(1, 2) - set(2)`)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(v, object.NewSet(object.Int(1))) {
		t.Errorf("except = %s", v)
	}
	v, err = e.Query(`element(set(7))`)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(v, object.Int(7)) {
		t.Errorf("element = %s", v)
	}
	v, err = e.Query(`count(my_article.sections)`)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(v, object.Int(2)) {
		t.Errorf("count = %s", v)
	}
	v, err = e.Query(`text(my_article.sections[0].title)`)
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(v, object.String_("Background")) {
		t.Errorf("text = %s", v)
	}
}

func TestWhereConnectivesAndQuantifiers(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`
select a from a in Articles
where a.status = "draft" or a.status = "final"`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got).Len() != 2 {
			t.Errorf("or = %s", got)
		}
		got, err = e.Query(`
select a from a in Articles
where not (a.status = "final")`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got).Len() != 1 {
			t.Errorf("not = %s", got)
		}
		got, err = e.Query(`
select a from a in Articles
where exists s in a.sections: s.title contains "Model"`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got).Len() != 1 {
			t.Errorf("exists = %s", got)
		}
		got, err = e.Query(`
select a from a in Articles
where forall s in a.sections: text(s.title) != ""`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got).Len() != 2 {
			t.Errorf("forall = %s", got)
		}
	})
}

func TestNearPredicate(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`
select ss from a in Articles, s in a.sections, ss in s.subsectns
where near(ss, "complex", "object", 1)`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got).Len() != 1 {
			t.Errorf("near = %s", got)
		}
		got, err = e.Query(`
select ss from a in Articles, s in a.sections, ss in s.subsectns
where near(ss, "complex", "lists", 2)`)
		if err != nil {
			t.Fatal(err)
		}
		if asSet(t, got).Len() != 0 {
			t.Errorf("near distance must exclude, got %s", got)
		}
	})
}

func TestPathFunctionsInQueries(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		// Titles reachable by short paths only: the article's own title is
		// at ->.title (length 2); section titles are deeper.
		got, err := e.Query(`
select t from my_article PATH_p.title(t)
where length(PATH_p) < 3`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		if s.Len() != 1 {
			t.Fatalf("short paths = %s", s)
		}
		if txt := e.Env.TextOf(e.Env.Inst, s.At(0)); txt != "Querying Documents in Object Databases" {
			t.Errorf("short-path title = %q", txt)
		}
	})
}

func TestProjectionOfPathAndAttrVars(t *testing.T) {
	e := articleEngine(t)
	bothEngines(t, e, func(t *testing.T, e *Engine) {
		got, err := e.Query(`select PATH_p from my_article PATH_p.title(t)`)
		if err != nil {
			t.Fatal(err)
		}
		s := asSet(t, got)
		if s.Len() < 5 {
			t.Errorf("path projection = %s", s)
		}
		got, err = e.Query(`select ATT_a from my_article PATH_p.ATT_a(v) where length(PATH_p) < 2`)
		if err != nil {
			t.Fatal(err)
		}
		s = asSet(t, got)
		// Attributes directly on the article tuple.
		wantAttrs := map[string]bool{"title": true, "authors": true, "affil": true,
			"abstract": true, "sections": true, "acknowl": true, "status": true}
		for i := 0; i < s.Len(); i++ {
			name := string(s.At(i).(object.String_))
			if !wantAttrs[name] {
				t.Errorf("unexpected attribute %q", name)
			}
		}
		if s.Len() != len(wantAttrs) {
			t.Errorf("attributes = %s", s)
		}
	})
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		``,
		`select`,
		`select x`,
		`select x from`,
		`select x from x in`,
		`a.`,
		`a[`,
		`a[1`,
		`"unterminated`,
		`select x from 3 in y`,
		`tuple(`,
		`near(a, "x")`,
		`a contains`,
		`a contains 3`,
		`select x from x in y where (`,
		`x ~ y`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestParserShapes(t *testing.T) {
	e, err := Parse(`select tuple (t: a.title, f_author: first(a.authors))
from a in Articles, s in a.sections
where s.title contains ("SGML" and "OODBMS")`)
	if err != nil {
		t.Fatal(err)
	}
	sel := e.(SelectExpr)
	if len(sel.From) != 2 {
		t.Fatalf("from = %v", sel.From)
	}
	if _, ok := sel.Proj.(TupleCons); !ok {
		t.Errorf("proj = %T", sel.Proj)
	}
	cont, ok := sel.Where.(ContainsExpr)
	if !ok {
		t.Fatalf("where = %T", sel.Where)
	}
	if _, ok := cont.Pattern.(PatAnd); !ok {
		t.Errorf("pattern = %T", cont.Pattern)
	}
	// Pattern binding with PATH and ATT variables.
	e2, err := Parse(`select name(ATT_a) from my_article PATH_p.ATT_a(val) where val contains ("final")`)
	if err != nil {
		t.Fatal(err)
	}
	sel2 := e2.(SelectExpr)
	pe := sel2.From[0].Base.(PathExpr)
	if len(pe.Elems) != 3 {
		t.Fatalf("pattern elems = %v", pe.Elems)
	}
	if _, ok := pe.Elems[0].(PathVarP); !ok {
		t.Error("elem 0 should be PATH var")
	}
	if _, ok := pe.Elems[1].(AttrVarP); !ok {
		t.Error("elem 1 should be ATT var")
	}
	if _, ok := pe.Elems[2].(BindP); !ok {
		t.Error("elem 2 should be a binding")
	}
	// Position bindings.
	e3, err := Parse(`select l from l in Letters, from(i) in l.preamble, to(j) in l.preamble where i < j`)
	if err != nil {
		t.Fatal(err)
	}
	sel3 := e3.(SelectExpr)
	if sel3.From[1].Attr != "from" || sel3.From[1].PosVar != "i" {
		t.Errorf("position binding = %+v", sel3.From[1])
	}
	// AST String round trips through the parser.
	for _, src := range []string{
		`select t from my_article PATH_p.title(t)`,
		`select a from a in Articles where near(a, "x", "y", 3)`,
		`set(1, 2) union list(3)[0:?]`,
	} {
		ast, err := Parse(src)
		if err != nil {
			continue // the last one is intentionally bogus
		}
		if _, err := Parse(ast.String()); err != nil {
			t.Errorf("String of %q does not re-parse: %v\n%s", src, err, ast)
		}
	}
}

func TestDistinctVariableScoping(t *testing.T) {
	e := articleEngine(t)
	// Duplicate from variables are rejected.
	if _, err := e.Query(`select a from a in Articles, a in Articles`); err == nil {
		t.Error("duplicate variable must be rejected")
	}
}

func TestRowsAndPlanAPIs(t *testing.T) {
	e := articleEngine(t)
	res, err := e.Rows(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() < 5 {
		t.Errorf("rows = %d", res.Len())
	}
	q, err := e.Lower(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 1 || q.Head[0].Name != "t" {
		t.Errorf("lowered head = %v", q.Head)
	}
	plan, err := e.Plan(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "path-navigate") {
		t.Errorf("plan:\n%s", plan.Explain())
	}
}

func TestIndexAcceleratedContains(t *testing.T) {
	e := articleEngine(t)
	// The same contains query with and without the index agrees.
	src := `select a from a in Articles where a contains "SGML"`
	e.UseAlgebra = true
	withIdx, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	indexed := e.State()
	e.Publish(State{Snap: indexed.Snap})
	without, err := e.Query(src)
	if err != nil {
		t.Fatal(err)
	}
	e.Publish(indexed)
	if !object.Equal(withIdx, without) {
		t.Errorf("index changes semantics: %s vs %s", withIdx, without)
	}
	if asSet(t, withIdx).Len() != 1 {
		t.Errorf("contains SGML = %s", withIdx)
	}
}

func TestTypecheckSkip(t *testing.T) {
	e := articleEngine(t)
	e.SkipTypecheck = true
	// Statically wrong but dynamically empty: accepted without typecheck.
	if _, err := e.Query(`select a from a in Articles where a.nosuchattr = 1`); err != nil {
		t.Errorf("with SkipTypecheck the query should run: %v", err)
	}
}

func TestEngineOverEmptySchema(t *testing.T) {
	s := store.NewSchema()
	if err := s.AddRoot("Nums", object.SetOf(object.IntType)); err != nil {
		t.Fatal(err)
	}
	in := store.NewInstance(s)
	_ = in.SetRoot("Nums", object.NewSet(object.Int(1), object.Int(2), object.Int(3)))
	e := New(calculus.NewEnv(in))
	got, err := e.Query(`select n from n in Nums where n > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if asSet(t, got).Len() != 2 {
		t.Errorf("filter = %s", got)
	}
}
