package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgmldb/internal/object"
)

// articleSchema builds a small version of the Figure 3 schema by hand.
func articleSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.AddClass("Text", object.TupleOf(object.TField{Name: "content", Type: object.StringType})))
	must(s.AddClass("Title", object.TupleOf(object.TField{Name: "content", Type: object.StringType})))
	must(s.AddInherits("Title", "Text"))
	must(s.AddClass("Author", object.TupleOf(object.TField{Name: "content", Type: object.StringType})))
	must(s.AddInherits("Author", "Text"))
	must(s.AddClass("Article", object.TupleOf(
		object.TField{Name: "title", Type: object.Class("Title")},
		object.TField{Name: "authors", Type: object.ListOf(object.Class("Author"))},
		object.TField{Name: "status", Type: object.StringType},
	)))
	must(s.MarkPrivate("Article", "status"))
	must(s.AddConstraint("Article", NotNil{Attr: "title"}))
	must(s.AddConstraint("Article", NotEmptyList{Attr: "authors"}))
	must(s.AddConstraint("Article", InSet{Attr: "status", Values: []object.Value{
		object.String_("final"), object.String_("draft")}}))
	must(s.AddRoot("Articles", object.ListOf(object.Class("Article"))))
	must(s.AddMethod(MethodSig{Class: "Article", Name: "text", Result: object.StringType}))
	must(s.Check())
	return s
}

func populate(t *testing.T, s *Schema) *Instance {
	t.Helper()
	in := NewInstance(s)
	title, err := in.NewObject("Title", object.NewTuple(object.Field{Name: "content", Value: object.String_("SGML and OODBMS")}))
	if err != nil {
		t.Fatal(err)
	}
	au, err := in.NewObject("Author", object.NewTuple(object.Field{Name: "content", Value: object.String_("V. Christophides")}))
	if err != nil {
		t.Fatal(err)
	}
	art, err := in.NewObject("Article", object.NewTuple(
		object.Field{Name: "title", Value: title},
		object.Field{Name: "authors", Value: object.NewList(au)},
		object.Field{Name: "status", Value: object.String_("final")},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := in.SetRoot("Articles", object.NewList(art)); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstanceBasics(t *testing.T) {
	s := articleSchema(t)
	in := populate(t, s)
	if in.NumObjects() != 3 {
		t.Fatalf("NumObjects = %d", in.NumObjects())
	}
	if errs := in.Check(); len(errs) != 0 {
		t.Fatalf("Check = %v", errs)
	}
	// π(Text) includes titles and authors via inheritance.
	if got := len(in.Extent("Text")); got != 2 {
		t.Errorf("Extent(Text) = %d, want 2", got)
	}
	if got := len(in.DirectExtent("Text")); got != 0 {
		t.Errorf("DirectExtent(Text) = %d, want 0", got)
	}
	if got := len(in.Extent("Article")); got != 1 {
		t.Errorf("Extent(Article) = %d", got)
	}
	o := in.Extent("Article")[0]
	if c, _ := in.ClassOf(o); c != "Article" {
		t.Errorf("ClassOf = %s", c)
	}
	v, ok := in.Deref(o)
	if !ok {
		t.Fatal("Deref failed")
	}
	if _, ok := v.(*object.Tuple); !ok {
		t.Fatal("article value not a tuple")
	}
	if _, ok := in.Deref(object.OID(999)); ok {
		t.Error("Deref of unknown oid must fail")
	}
	if _, err := in.NewObject("Ghost", object.Nil{}); err == nil {
		t.Error("NewObject of undeclared class must fail")
	}
	if err := in.SetRoot("Ghost", object.Nil{}); err == nil {
		t.Error("SetRoot of undeclared root must fail")
	}
	if err := in.SetValue(object.OID(999), object.Nil{}); err == nil {
		t.Error("SetValue of unknown oid must fail")
	}
}

func TestInstanceCheckViolations(t *testing.T) {
	s := articleSchema(t)
	in := NewInstance(s)
	// Wrong value type for the class.
	o, err := in.NewObject("Title", object.Int(42))
	if err != nil {
		t.Fatal(err)
	}
	errs := in.Check()
	if len(errs) == 0 {
		t.Fatal("expected type violation")
	}
	if err := in.SetValue(o, object.NewTuple(object.Field{Name: "content", Value: object.String_("ok")})); err != nil {
		t.Fatal(err)
	}
	if errs := in.Check(); len(errs) != 0 {
		t.Fatalf("fixed instance still fails: %v", errs)
	}
	// Constraint violations: nil title, empty authors, bad status.
	_, err = in.NewObject("Article", object.NewTuple(
		object.Field{Name: "title", Value: object.Nil{}},
		object.Field{Name: "authors", Value: object.NewList()},
		object.Field{Name: "status", Value: object.String_("published")},
	))
	if err != nil {
		t.Fatal(err)
	}
	errs = in.Check()
	var nViol int
	for _, e := range errs {
		if _, ok := e.(ConstraintViolation); ok {
			nViol++
			if !strings.Contains(e.Error(), "Article") {
				t.Errorf("violation message lacks class: %v", e)
			}
		}
	}
	if nViol != 3 {
		t.Errorf("want 3 constraint violations, got %d (%v)", nViol, errs)
	}
	// Dangling reference.
	in2 := NewInstance(s)
	_, err = in2.NewObject("Article", object.NewTuple(
		object.Field{Name: "title", Value: object.OID(12345)},
		object.Field{Name: "authors", Value: object.NewList(object.OID(777))},
		object.Field{Name: "status", Value: object.String_("final")},
	))
	if err != nil {
		t.Fatal(err)
	}
	errs = in2.Check()
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "unassigned oids") {
			found = true
		}
	}
	if !found {
		t.Errorf("dangling oids not reported: %v", errs)
	}
}

func TestMethods(t *testing.T) {
	s := articleSchema(t)
	in := populate(t, s)
	err := in.BindMethod("Text", "text", func(inst *Instance, recv object.OID, _ []object.Value) (object.Value, error) {
		v, _ := inst.Deref(recv)
		tup := v.(*object.Tuple)
		c, _ := tup.Get("content")
		return c, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Invoke on a Title resolves the Text binding via inheritance.
	titleOID := in.Extent("Title")[0]
	got, err := in.Invoke(titleOID, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !object.Equal(got, object.String_("SGML and OODBMS")) {
		t.Errorf("Invoke = %s", got)
	}
	if _, err := in.Invoke(titleOID, "missing"); err == nil {
		t.Error("missing method must error")
	}
	if _, err := in.Invoke(object.OID(999), "text"); err == nil {
		t.Error("unknown receiver must error")
	}
	// A more specific binding wins.
	err = in.BindMethod("Title", "text", func(*Instance, object.OID, []object.Value) (object.Value, error) {
		return object.String_("TITLE"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err = in.Invoke(titleOID, "text")
	if err != nil || !object.Equal(got, object.String_("TITLE")) {
		t.Errorf("override failed: %v %v", got, err)
	}
	if err := in.BindMethod("Nope", "x", nil); err == nil {
		t.Error("BindMethod on undeclared class must fail")
	}
}

func TestConstraintKinds(t *testing.T) {
	deref := func(object.OID) (object.Value, bool) { return object.Nil{}, false }
	v := object.NewTuple(
		object.Field{Name: "a", Value: object.String_("x")},
		object.Field{Name: "b", Value: object.NewList(object.Int(1))},
		object.Field{Name: "c", Value: object.Nil{}},
	)
	if !(NotNil{Attr: "a"}).Holds(v, nil) {
		t.Error("NotNil a")
	}
	if (NotNil{Attr: "c"}).Holds(v, nil) {
		t.Error("NotNil c must fail")
	}
	if (NotNil{Attr: "zz"}).Holds(v, nil) {
		t.Error("NotNil on missing attr must fail")
	}
	if !(NotEmptyList{Attr: "b"}).Holds(v, nil) {
		t.Error("NotEmptyList b")
	}
	if (NotEmptyList{Attr: "a"}).Holds(v, nil) {
		t.Error("NotEmptyList on non-list must fail")
	}
	in := InSet{Attr: "a", Values: []object.Value{object.String_("x"), object.String_("y")}}
	if !in.Holds(v, nil) {
		t.Error("InSet")
	}
	if (InSet{Attr: "a", Values: []object.Value{object.Int(1)}}).Holds(v, nil) {
		t.Error("InSet mismatch must fail")
	}
	// NotNil through a present but dangling reference.
	vr := object.NewTuple(object.Field{Name: "r", Value: object.OID(5)})
	if (NotNil{Attr: "r"}).Holds(vr, deref) {
		t.Error("NotNil with dangling deref must fail")
	}
	if !(NotNil{Attr: "r"}).Holds(vr, nil) {
		t.Error("NotNil without deref accepts oid")
	}
	// OnAlt applies only to the matching alternative.
	ua := object.NewUnion("a1", object.NewTuple(object.Field{Name: "title", Value: object.Nil{}}))
	con := OnAlt{Marker: "a1", Inner: []Constraint{NotNil{Attr: "title"}}}
	if con.Holds(ua, nil) {
		t.Error("OnAlt a1 must fail on nil title")
	}
	ub := object.NewUnion("a2", object.NewTuple(object.Field{Name: "title", Value: object.Nil{}}))
	if !con.Holds(ub, nil) {
		t.Error("OnAlt must hold vacuously on other alternatives")
	}
	// AnyOf.
	any := AnyOf{Alts: []Constraint{NotNil{Attr: "c"}, NotNil{Attr: "a"}}}
	if !any.Holds(v, nil) {
		t.Error("AnyOf")
	}
	none := AnyOf{Alts: []Constraint{NotNil{Attr: "c"}, NotNil{Attr: "zz"}}}
	if none.Holds(v, nil) {
		t.Error("AnyOf all failing must fail")
	}
	// Dotted paths reach into union alternatives (a1.title style).
	sec := object.NewUnion("a1", object.NewTuple(object.Field{Name: "title", Value: object.String_("t")}))
	if !(NotNil{Attr: "a1.title"}).Holds(sec, nil) {
		t.Error("dotted path through union marker")
	}
	// Strings.
	if (NotNil{Attr: "x"}).String() != "x != nil" {
		t.Error("NotNil String")
	}
	if (NotEmptyList{Attr: "x"}).String() != "x != list()" {
		t.Error("NotEmptyList String")
	}
	if got := in.String(); got != `a in set("x", "y")` {
		t.Errorf("InSet String = %s", got)
	}
	if !strings.Contains(con.String(), "a1.title != nil") {
		t.Errorf("OnAlt String = %s", con.String())
	}
	if !strings.Contains(any.String(), " | ") {
		t.Errorf("AnyOf String = %s", any.String())
	}
}

func TestSchemaErrorsAndString(t *testing.T) {
	s := articleSchema(t)
	if err := s.AddRoot("Articles", object.Any); err == nil {
		t.Error("duplicate root must fail")
	}
	if err := s.AddRoot("", object.Any); err == nil {
		t.Error("empty root must fail")
	}
	if err := s.AddConstraint("Nope", NotNil{}); err == nil {
		t.Error("constraint on undeclared class must fail")
	}
	if err := s.MarkPrivate("Nope", "x"); err == nil {
		t.Error("private on undeclared class must fail")
	}
	if err := s.AddMethod(MethodSig{Class: "Nope", Name: "m"}); err == nil {
		t.Error("method on undeclared class must fail")
	}
	out := s.String()
	for _, want := range []string{
		"class Title inherit Text",
		"private status: string",
		`status in set("final", "draft")`,
		"name Articles: list(Article)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("schema String missing %q in:\n%s", want, out)
		}
	}
	// Undeclared class reference is caught by Check.
	s2 := NewSchema()
	_ = s2.AddClass("A", object.TupleOf(object.TField{Name: "x", Type: object.Class("Missing")}))
	if err := s2.Check(); err == nil {
		t.Error("dangling class reference must be rejected")
	}
	s3 := NewSchema()
	_ = s3.AddRoot("G", object.SetOf(object.Class("Missing")))
	if err := s3.Check(); err == nil {
		t.Error("dangling root reference must be rejected")
	}
	sig := MethodSig{Class: "A", Name: "m", Params: []object.Type{object.IntType}, Result: object.StringType}
	if got := sig.String(); got != "A::m(integer): string" {
		t.Errorf("MethodSig String = %s", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := articleSchema(t)
	in := populate(t, s)
	var buf bytes.Buffer
	if err := Save(&buf, in); err != nil {
		t.Fatal(err)
	}
	in2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if in2.NumObjects() != in.NumObjects() {
		t.Fatalf("object count mismatch: %d vs %d", in2.NumObjects(), in.NumObjects())
	}
	for _, o := range in.Objects() {
		c1, _ := in.ClassOf(o)
		c2, ok := in2.ClassOf(o)
		if !ok || c1 != c2 {
			t.Errorf("class of %s mismatch: %s vs %s", o, c1, c2)
		}
		v1, _ := in.Deref(o)
		v2, _ := in2.Deref(o)
		if !object.Equal(v1, v2) {
			t.Errorf("value of %s mismatch: %s vs %s", o, v1, v2)
		}
	}
	r1, _ := in.Root("Articles")
	r2, ok := in2.Root("Articles")
	if !ok || !object.Equal(r1, r2) {
		t.Error("root mismatch after round trip")
	}
	// Schema survives: constraints, private marks, methods, inheritance.
	if len(in2.Schema().Constraints("Article")) != 3 {
		t.Error("constraints lost")
	}
	if !in2.Schema().IsPrivate("Article", "status") {
		t.Error("private mark lost")
	}
	if len(in2.Schema().Methods()) != 1 {
		t.Error("method signatures lost")
	}
	if !in2.Schema().Hierarchy().IsSubclass("Title", "Text") {
		t.Error("inheritance lost")
	}
	if errs := in2.Check(); len(errs) != 0 {
		t.Errorf("reloaded instance fails Check: %v", errs)
	}
	// New objects after load continue the oid sequence.
	o, err := in2.NewObject("Title", object.NewTuple(object.Field{Name: "content", Value: object.String_("new")}))
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := in.Deref(o); taken {
		t.Errorf("oid %s reused after load", o)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	s := articleSchema(t)
	in := populate(t, s)
	path := filepath.Join(t.TempDir(), "db.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(f, in); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in2, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if in2.NumObjects() != 3 {
		t.Error("file round trip lost objects")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a snapshot\nend\n",
		snapshotMagic + "\nbogus 1:x\nend\n",
		snapshotMagic + "\nclass 1:A\nend\n", // missing type
		snapshotMagic + "\nobject zz 1:A vn\nend\n", // bad oid
		snapshotMagic + "\n",                        // truncated
		snapshotMagic + "\ninherits 1:A 1:B\nend\n", // undeclared classes
		snapshotMagic + "\nrootval 1:G vn\nend\n",   // undeclared root
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestSnapshotValueRoundTripProperty(t *testing.T) {
	// Round-trip random values through the encoding.
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		v := genValue(r, 3)
		var b strings.Builder
		encodeValue(&b, v)
		p := &parser{s: b.String()}
		got := p.value()
		if p.err != nil {
			t.Fatalf("decode error for %s: %v", v, p.err)
		}
		if p.pos != len(p.s) {
			t.Fatalf("trailing input for %s", v)
		}
		if !object.Equal(v, got) {
			t.Fatalf("round trip %s -> %s", v, got)
		}
	}
}

// genValue mirrors the object package's property generator (unexported
// there).
func genValue(r *rand.Rand, depth int) object.Value {
	if depth <= 0 {
		switch r.Intn(6) {
		case 0:
			return object.Nil{}
		case 1:
			return object.Int(r.Int63n(1000) - 500)
		case 2:
			return object.Float(float64(r.Intn(100)) / 4)
		case 3:
			return object.String_(strings.Repeat("xyžβ", r.Intn(3)))
		case 4:
			return object.Bool(r.Intn(2) == 0)
		default:
			return object.OID(uint64(r.Intn(9) + 1))
		}
	}
	switch r.Intn(8) {
	case 0:
		return object.Int(r.Int63n(100))
	case 1, 2:
		names := []string{"a", "b", "c d", "ε"}
		n := r.Intn(3)
		fs := make([]object.Field, 0, n)
		for i := 0; i < n; i++ {
			fs = append(fs, object.Field{Name: names[i], Value: genValue(r, depth-1)})
		}
		return object.NewTuple(fs...)
	case 3, 4:
		n := r.Intn(4)
		es := make([]object.Value, n)
		for i := range es {
			es[i] = genValue(r, depth-1)
		}
		return object.NewList(es...)
	case 5:
		n := r.Intn(4)
		es := make([]object.Value, n)
		for i := range es {
			es[i] = genValue(r, depth-1)
		}
		return object.NewSet(es...)
	case 6:
		return object.NewUnion("m"+string(rune('0'+r.Intn(3))), genValue(r, depth-1))
	default:
		return object.String_("s")
	}
}

func TestStats(t *testing.T) {
	s := articleSchema(t)
	in := populate(t, s)
	st := in.Stats()
	if st.Objects != 3 {
		t.Errorf("Objects = %d", st.Objects)
	}
	if st.PerClass["Title"] != 1 || st.PerClass["Author"] != 1 || st.PerClass["Article"] != 1 {
		t.Errorf("PerClass = %v", st.PerClass)
	}
	if st.ValueBytes == 0 {
		t.Error("ValueBytes must be positive")
	}
	if st.RootValues != 1 || len(st.Roots) != 1 || st.Roots[0] != "Articles" {
		t.Errorf("roots = %v", st.Roots)
	}
}
