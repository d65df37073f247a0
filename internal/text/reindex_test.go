package text

import (
	"reflect"
	"testing"
)

// TestReAddRejected: Adding a DocID the index already holds fails and
// leaves the index unchanged — postings, phrases, near and document
// order all still answer from the first text.
func TestReAddRejected(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, "structured documents need query facilities")
	ix.Add(2, "documents")
	if err := ix.Add(1, "novel query facilities for structured documents"); err == nil {
		t.Fatal("re-Add of doc 1 succeeded, want error")
	}

	if got := ix.Size(); got != 2 {
		t.Errorf("Size = %d, want 2", got)
	}
	if got := ix.Docs(); !reflect.DeepEqual(got, []DocID{1, 2}) {
		t.Errorf("Docs = %v, want [1 2]", got)
	}
	if got := ix.Lookup("need"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf(`Lookup("need") = %v, want [1]`, got)
	}
	if got := ix.Lookup("novel"); len(got) != 0 {
		t.Errorf(`Lookup("novel") = %v, want none: the rejected text is not indexed`, got)
	}
	if got := ix.Eval(MatchExpr{Pattern: MustCompileLiteral(t, "documents need")}); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("original phrase = %v, want [1]", got)
	}
	if got := ix.Eval(MatchExpr{Pattern: MustCompileLiteral(t, "novel query facilities")}); len(got) != 0 {
		t.Errorf("rejected phrase matches: %v", got)
	}
	if got := ix.Eval(MatchExpr{Pattern: MustCompileLiteral(t, "structured documents")}); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf(`phrase "structured documents" = %v, want [1]`, got)
	}
	if got := ix.Eval(NearExpr{A: "structured", B: "query", Dist: 2}); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("near = %v, want [1]", got)
	}
}

// MustCompileLiteral compiles an escaped literal pattern for tests.
func MustCompileLiteral(t *testing.T, s string) *Pattern {
	t.Helper()
	p, err := Compile(escapeLiteral(s))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestNearMultiWordOperands: a near operand that is itself a phrase must
// be evaluated as a phrase, not silently truncated to its first word.
func TestNearMultiWordOperands(t *testing.T) {
	const doc = "the system supports complex object queries over structured documents"
	ix := NewIndex()
	ix.Add(7, doc)

	// "complex object" occurs at positions 3-4, "structured" at 7: two
	// intervening words ("queries", "over").
	if got := ix.Eval(NearExpr{A: "complex object", B: "structured", Dist: 2}); !reflect.DeepEqual(got, []DocID{7}) {
		t.Errorf("phrase-near (dist 2) = %v, want [7]", got)
	}
	if got := ix.Eval(NearExpr{A: "complex object", B: "structured", Dist: 1}); len(got) != 0 {
		t.Errorf("phrase-near (dist 1) = %v, want none", got)
	}
	// Truncation to the first word would match: "complex" alone is 3
	// words from "over" — make sure the full phrase's end is used.
	if got := ix.Eval(NearExpr{A: "complex object queries", B: "over", Dist: 0}); !reflect.DeepEqual(got, []DocID{7}) {
		t.Errorf("adjacent phrase-near = %v, want [7]", got)
	}
	// A phrase that does not occur (words present but not consecutive)
	// must not match even though its first word is near B.
	if got := ix.Eval(NearExpr{A: "complex documents", B: "queries", Dist: 5}); len(got) != 0 {
		t.Errorf("non-occurring phrase operand matched: %v", got)
	}

	// The scan path must agree with the index path.
	if !Contains(doc, NearExpr{A: "complex object", B: "structured", Dist: 2}) {
		t.Error("scan: phrase-near (dist 2) should hold")
	}
	if Contains(doc, NearExpr{A: "complex object", B: "structured", Dist: 1}) {
		t.Error("scan: phrase-near (dist 1) should not hold")
	}
	if Contains(doc, NearExpr{A: "complex documents", B: "queries", Dist: 5}) {
		t.Error("scan: non-occurring phrase operand should not hold")
	}
	// Char distance across a phrase: "complex object" ends before
	// " queries", one space → distance 1.
	if !Contains(doc, NearExpr{A: "complex object", B: "queries", Dist: 1, Chars: true}) {
		t.Error("scan: char-near across phrase end should hold")
	}
	if Contains(doc, NearExpr{A: "complex", B: "queries", Dist: 1, Chars: true}) {
		t.Error("scan: char distance must be measured from the operand's own end")
	}
}

// TestIndexCloneIsolation: a clone and its base must not observe each
// other's Adds, even though they share posting storage at clone time.
func TestIndexCloneIsolation(t *testing.T) {
	base := NewIndex()
	base.Add(1, "alpha beta gamma")
	base.Add(2, "beta delta")

	c := base.Clone()
	c.Add(3, "beta epsilon")
	if err := c.Add(1, "alpha rewritten"); err == nil {
		t.Error("re-Add into the clone succeeded, want error")
	}

	// Base is untouched.
	if got := base.Size(); got != 2 {
		t.Errorf("base Size = %d after clone mutation", got)
	}
	if got := base.Lookup("beta"); !reflect.DeepEqual(got, []DocID{1, 2}) {
		t.Errorf("base beta docs = %v, want [1 2]", got)
	}
	if got := base.Lookup("gamma"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("base gamma docs = %v, want [1]", got)
	}
	if got := base.Lookup("epsilon"); len(got) != 0 {
		t.Errorf("clone doc leaked into base: %v", got)
	}

	// Clone sees its own state.
	if got := c.Size(); got != 3 {
		t.Errorf("clone Size = %d, want 3", got)
	}
	if got := c.Lookup("beta"); !reflect.DeepEqual(got, []DocID{1, 2, 3}) {
		t.Errorf("clone beta docs = %v, want [1 2 3]", got)
	}
	if got := c.Lookup("gamma"); !reflect.DeepEqual(got, []DocID{1}) {
		t.Errorf("clone gamma docs = %v, want [1]", got)
	}
	if got := c.Lookup("rewritten"); len(got) != 0 {
		t.Errorf("rejected re-Add indexed words: %v", got)
	}

	// Mutating the base after the clone (the facade never does, but the
	// structure must still hold) leaves the clone alone.
	base.Add(4, "beta zeta")
	if got := c.Lookup("zeta"); len(got) != 0 {
		t.Errorf("base doc leaked into clone: %v", got)
	}
	if got := base.Lookup("beta"); !reflect.DeepEqual(got, []DocID{1, 2, 4}) {
		t.Errorf("base beta docs after own Add = %v, want [1 2 4]", got)
	}
}

// TestCloneOfCloneChain exercises repeated cloning, the facade's
// steady-state (every load clones the previously published index).
func TestCloneOfCloneChain(t *testing.T) {
	ix := NewIndex()
	var gens []*Index
	for i := 0; i < 5; i++ {
		ix = ix.Clone()
		ix.Add(DocID(i+1), "common word")
		gens = append(gens, ix)
	}
	for i, g := range gens {
		if got := g.Size(); got != i+1 {
			t.Errorf("generation %d Size = %d, want %d", i, got, i+1)
		}
		if got := len(g.Lookup("common")); got != i+1 {
			t.Errorf("generation %d common docs = %d, want %d", i, got, i+1)
		}
	}
}
