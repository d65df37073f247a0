package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestPatternLiterals(t *testing.T) {
	p := MustCompile("SGML")
	if !p.Match("an SGML document") || p.Match("an XML document") {
		t.Error("literal match")
	}
	if lit, ok := p.Literal(); !ok || lit != "sgml" {
		t.Errorf("Literal = %q %v", lit, ok)
	}
	// Matching is case-sensitive at the pattern level.
	if p.Match("sgml") {
		t.Error("case sensitivity")
	}
	// Substring (unanchored) semantics.
	if !MustCompile("GM").Match("SGML") {
		t.Error("substring search")
	}
	if p.Source() != "SGML" || p.String() != `"SGML"` {
		t.Error("Source/String")
	}
}

func TestPatternOperators(t *testing.T) {
	cases := []struct {
		pat string
		yes []string
		no  []string
	}{
		{"(t|T)itle", []string{"title", "Title", "subTitle"}, []string{"TITLE", "titl"}},
		{"ab*c", []string{"ac", "abc", "abbbc"}, []string{"a c", "adc"}},
		{"ab+c", []string{"abc", "abbc"}, []string{"ac"}},
		{"ab?c", []string{"ac", "abc"}, []string{"abbc x"}},
		{"a.c", []string{"abc", "a c", "axc"}, []string{"ab"}},
		{"[a-c]x", []string{"ax", "bx", "cx"}, []string{"dx"}},
		{"[^a-c]x", []string{"dx", " x"}, []string{"ax only bx cx"}},
		{`a\*b`, []string{"a*b"}, []string{"aab"}},
		{"(ab|cd)+e", []string{"abe", "cdabe"}, []string{"e", "ade"}},
		{"", []string{"", "anything"}, nil}, // empty pattern matches everywhere
		{"x|", []string{"x", "anything"}, nil},
		{"[0-9]+cm", []string{"16cm"}, []string{"cm"}},
	}
	for _, c := range cases {
		p, err := Compile(c.pat)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.pat, err)
		}
		for _, s := range c.yes {
			if !p.Match(s) {
				t.Errorf("%q must match %q", c.pat, s)
			}
		}
		for _, s := range c.no {
			if p.Match(s) {
				t.Errorf("%q must not match %q", c.pat, s)
			}
		}
	}
	if _, ok := MustCompile("a*").Literal(); ok {
		t.Error("operator pattern has no literal")
	}
}

func TestPatternErrors(t *testing.T) {
	for _, bad := range []string{"(", "(a", ")", "a)", "[", "[]", "*", "+a", "?", `\`} {
		if _, err := Compile(bad); err == nil {
			t.Errorf("Compile(%q) must fail", bad)
		}
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile must panic on bad pattern")
		}
	}()
	MustCompile("(")
}

func TestBooleanCombinations(t *testing.T) {
	title := "Combining SGML repositories with an OODBMS"
	// Q1's pattern: contains ("SGML" and "OODBMS").
	e := And(MustWord("SGML"), MustWord("OODBMS"))
	if !Contains(title, e) {
		t.Error("Q1 combination must hold")
	}
	if Contains("SGML only", e) {
		t.Error("and must require both")
	}
	if !Contains("SGML only", Or(MustWord("OODBMS"), MustWord("SGML"))) {
		t.Error("or")
	}
	if Contains(title, Not(MustWord("SGML"))) {
		t.Error("not")
	}
	if !Contains(title, Not(MustWord("XQuery"))) {
		t.Error("not of absent word")
	}
	if got := e.String(); got != `("SGML" and "OODBMS")` {
		t.Errorf("And String = %s", got)
	}
	if got := Or(MustWord("a"), Not(MustWord("b"))).String(); got != `("a" or not "b")` {
		t.Errorf("Or String = %s", got)
	}
	// Word escapes metacharacters.
	if !Contains("f(x)=y*z", MustWord("f(x)=y*z")) {
		t.Error("Word must escape metacharacters")
	}
	// PatternExpr exposes raw syntax.
	pe, err := PatternExpr("(t|T)itle")
	if err != nil {
		t.Fatal(err)
	}
	if !Contains("the Title", pe) {
		t.Error("PatternExpr")
	}
	if _, err := PatternExpr("("); err == nil {
		t.Error("PatternExpr must propagate errors")
	}
	ok, err := ContainsWord("complex object store", "complex object")
	if err != nil {
		t.Fatalf("ContainsWord: %v", err)
	}
	if !ok {
		t.Error("ContainsWord phrase")
	}
	if _, err := Word("complex object"); err != nil {
		t.Errorf("Word: %v", err)
	}
}

func TestNear(t *testing.T) {
	s := "the query language supports complex object manipulation"
	if !Contains(s, NearExpr{A: "query", B: "complex", Dist: 3}) {
		t.Error("within 3 words")
	}
	if Contains(s, NearExpr{A: "query", B: "manipulation", Dist: 3}) {
		t.Error("too far")
	}
	if !Contains(s, NearExpr{A: "complex", B: "object", Dist: 0}) {
		t.Error("adjacent words are 0 apart")
	}
	// Symmetric.
	if !Contains(s, NearExpr{A: "object", B: "complex", Dist: 0}) {
		t.Error("near is symmetric")
	}
	// Character distance.
	if !Contains(s, NearExpr{A: "the", B: "query", Dist: 1, Chars: true}) {
		t.Error("char distance")
	}
	if Contains(s, NearExpr{A: "the", B: "supports", Dist: 3, Chars: true}) {
		t.Error("char distance too far")
	}
	if Contains("no words", NearExpr{A: "x", B: "y", Dist: 5}) {
		t.Error("absent words")
	}
	if got := (NearExpr{A: "a", B: "b", Dist: 2}).String(); got != `near("a", "b", 2 words)` {
		t.Errorf("Near String = %s", got)
	}
}

func TestTokenize(t *testing.T) {
	toks := Tokenize("The O2-DBMS, v1.0!")
	words := make([]string, len(toks))
	for i, tk := range toks {
		words[i] = tk.Word
	}
	want := []string{"the", "o2", "dbms", "v1", "0"}
	if strings.Join(words, " ") != strings.Join(want, " ") {
		t.Errorf("words = %v", words)
	}
	for i, tk := range toks {
		if tk.Pos != i {
			t.Errorf("token %d Pos = %d", i, tk.Pos)
		}
	}
	if toks[1].Offset != 4 {
		t.Errorf("O2 offset = %d", toks[1].Offset)
	}
	if len(Tokenize("")) != 0 || len(Tokenize("   ,,,")) != 0 {
		t.Error("empty tokenisation")
	}
	if got := Words("A b C"); len(got) != 3 || got[2] != "c" {
		t.Errorf("Words = %v", got)
	}
}

func buildIndex() *Index {
	ix := NewIndex()
	ix.Add(1, "SGML documents in an object oriented database")
	ix.Add(2, "the OODBMS stores complex objects")
	ix.Add(3, "SGML meets the OODBMS: complex object support")
	ix.Add(4, "relational tables and tuples")
	return ix
}

func TestIndexLookup(t *testing.T) {
	ix := buildIndex()
	if ix.Size() != 4 {
		t.Errorf("Size = %d", ix.Size())
	}
	if ix.VocabularySize() == 0 {
		t.Error("vocabulary empty")
	}
	if got := ix.Lookup("sgml"); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Lookup(sgml) = %v", got)
	}
	if got := ix.Lookup("nothing"); len(got) != 0 {
		t.Errorf("Lookup(nothing) = %v", got)
	}
	if got := ix.Docs(); len(got) != 4 {
		t.Errorf("Docs = %v", got)
	}
}

func TestIndexEval(t *testing.T) {
	ix := buildIndex()
	// Q1's conjunction.
	got := ix.Eval(And(MustWord("SGML"), MustWord("OODBMS")))
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("and = %v", got)
	}
	got = ix.Eval(Or(MustWord("SGML"), MustWord("relational")))
	if len(got) != 3 {
		t.Errorf("or = %v", got)
	}
	got = ix.Eval(Not(MustWord("SGML")))
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("not = %v", got)
	}
	// Pattern atom scans the vocabulary.
	pe, _ := PatternExpr("(s|S)(g|G)(m|M)(l|L)")
	got = ix.Eval(pe)
	if len(got) != 2 {
		t.Errorf("pattern = %v", got)
	}
	// Phrase: consecutive words.
	got = ix.Eval(MustWord("complex object"))
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("phrase = %v", got)
	}
	got = ix.Eval(MustWord("complex objects"))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("phrase 2 = %v", got)
	}
	// Near through positions.
	got = ix.Eval(NearExpr{A: "complex", B: "support", Dist: 1})
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("near = %v", got)
	}
	// Empty results.
	if got := ix.Eval(MustWord("zebra")); len(got) != 0 {
		t.Errorf("missing word = %v", got)
	}
}

// TestIndexAgreesWithScan cross-checks the index against direct text
// scanning on random word queries: the accelerated and the naive
// evaluation of contains must coincide (experiment B2's correctness leg).
func TestIndexAgreesWithScan(t *testing.T) {
	vocab := []string{"sgml", "oodbms", "query", "path", "document", "schema", "type", "union"}
	r := rand.New(rand.NewSource(11))
	docs := make(map[DocID]string)
	ix := NewIndex()
	for d := DocID(1); d <= 40; d++ {
		n := 3 + r.Intn(10)
		words := make([]string, n)
		for i := range words {
			words[i] = vocab[r.Intn(len(vocab))]
		}
		text := strings.Join(words, " ")
		docs[d] = text
		ix.Add(d, text)
	}
	for trial := 0; trial < 200; trial++ {
		var e Expr = MustWord(vocab[r.Intn(len(vocab))])
		for d := 0; d < 2; d++ {
			w := MustWord(vocab[r.Intn(len(vocab))])
			switch r.Intn(3) {
			case 0:
				e = And(e, w)
			case 1:
				e = Or(e, w)
			case 2:
				e = And(e, Not(w))
			}
		}
		want := map[DocID]bool{}
		for d, text := range docs {
			if Contains(text, e) {
				want[d] = true
			}
		}
		got := ix.Eval(e)
		if len(got) != len(want) {
			t.Fatalf("expr %s: index %v vs scan %v", e, got, want)
		}
		for _, d := range got {
			if !want[d] {
				t.Fatalf("expr %s: doc %d in index result but not in scan", e, d)
			}
		}
	}
}

// TestReAddKeepsPositions: indexing a document a second time is refused,
// so its positions never accumulate out of order.
func TestReAddKeepsPositions(t *testing.T) {
	ix := NewIndex()
	ix.Add(7, "alpha beta")
	if err := ix.Add(7, "beta gamma"); err == nil {
		t.Error("re-Add of doc 7 succeeded, want error")
	}
	if ix.Size() != 1 {
		t.Errorf("Size = %d", ix.Size())
	}
	if got := ix.Lookup("beta"); len(got) != 1 {
		t.Errorf("beta = %v", got)
	}
	if got := ix.Lookup("gamma"); len(got) != 0 {
		t.Errorf("gamma = %v, want none", got)
	}
	if got := ix.segs[0].vocab["beta"][0].positions; !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("beta positions = %v, want [1]", got)
	}
}

func TestNFAResistPathological(t *testing.T) {
	// (a?)ⁿaⁿ — catastrophic for backtracking engines, linear for the NFA.
	n := 24
	pat := strings.Repeat("a?", n) + strings.Repeat("a", n)
	p, err := Compile(pat)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match(strings.Repeat("a", n)) {
		t.Error("pathological pattern must match")
	}
	if p.Match(strings.Repeat("b", n)) {
		t.Error("pathological pattern must not match b's")
	}
}
