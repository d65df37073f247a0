package corpus

import (
	"strings"
	"testing"

	"sgmldb/internal/oql"
)

func TestGeneratorDeterminism(t *testing.T) {
	g1 := NewGenerator(Params{Seed: 42})
	g2 := NewGenerator(Params{Seed: 42})
	if g1.Article(3) != g2.Article(3) {
		t.Error("same seed must generate identical documents")
	}
	g3 := NewGenerator(Params{Seed: 43})
	if g1.Article(0) == g3.Article(0) {
		t.Error("different seeds should differ")
	}
}

func TestBuildArticles(t *testing.T) {
	db, err := BuildArticles(Params{Docs: 4, Sections: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Loader.Documents()); got != 4 {
		t.Fatalf("documents = %d", got)
	}
	if errs := db.Loader.Instance.Check(); len(errs) != 0 {
		t.Fatalf("generated instance invalid: %v", errs)
	}
	if db.RawBytes == 0 {
		t.Error("RawBytes")
	}
	if db.Index.Size() != 4 {
		t.Errorf("index size = %d", db.Index.Size())
	}
	// The corpus is queryable: sections with subsections exist.
	e := oql.New(db.Env)
	e.Publish(oql.State{Snap: db.Env.Inst.Snapshot(), Index: db.Index})
	got, err := e.Query(`select ss from a in Articles, s in a.sections, ss in s.subsectns`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(got.String(), "set()") {
		t.Error("expected subsections in the corpus")
	}
}

func TestBuildLetters(t *testing.T) {
	db, err := BuildLetters(Params{Docs: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if errs := db.Loader.Instance.Check(); len(errs) != 0 {
		t.Fatalf("letters instance invalid: %v", errs)
	}
	e := oql.New(db.Env)
	got, err := e.Query(`
select letter
from letter in Letters, from(i) in letter.preamble, to(j) in letter.preamble
where i < j`)
	if err != nil {
		t.Fatal(err)
	}
	// Odd ids put the sender first: 3 of 6.
	if !strings.Contains(got.String(), "o") {
		t.Errorf("Q6 over generated letters = %s", got)
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewGenerator(Params{Seed: 1, Vocabulary: 100})
	counts := map[string]int{}
	for i := 0; i < 5000; i++ {
		counts[g.word()]++
	}
	// The most frequent word should dominate a mid-rank word heavily.
	if counts["w0000"] < 5*counts["w0050"]+1 {
		t.Errorf("distribution not skewed: w0000=%d w0050=%d", counts["w0000"], counts["w0050"])
	}
}

// TestSubDocumentContainsNaiveVsAlgebra: the index holds documents only,
// so a contains over sub-document objects (sections, subsections) must
// scan their text under the algebra exactly as the naive evaluator does,
// while a document-level contains keeps the index access path.
func TestSubDocumentContainsNaiveVsAlgebra(t *testing.T) {
	db, err := BuildArticles(Params{Docs: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	engine := func(algebra bool) *oql.Engine {
		e := oql.New(db.Env)
		e.Publish(oql.State{Snap: db.Env.Inst.Snapshot(), Index: db.Index})
		e.UseAlgebra = algebra
		return e
	}
	naive, alg := engine(false), engine(true)
	for _, q := range []string{
		`select ss from a in Articles, s in a.sections, ss in s.subsectns where ss contains "w0001"`,
		`select s from a in Articles, s in a.sections where s contains "w0001"`,
		`select a from a in Articles where a contains "w0001"`,
	} {
		want, err := naive.Query(q)
		if err != nil {
			t.Fatalf("naive %s: %v", q, err)
		}
		got, err := alg.Query(q)
		if err != nil {
			t.Fatalf("algebra %s: %v", q, err)
		}
		if want.String() == "set()" {
			t.Errorf("%s: naive answer is empty; the fixture should match", q)
		}
		if got.String() != want.String() {
			t.Errorf("%s:\nalgebra %s\nnaive   %s", q, got, want)
		}
	}
	plan, err := alg.Plan(`select a from a in Articles where a contains "w0001"`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "index-contains") {
		t.Errorf("document-level contains lost the index access path:\n%s", plan.Explain())
	}
}
