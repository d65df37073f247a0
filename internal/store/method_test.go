package store

import (
	"bytes"
	"testing"

	"sgmldb/internal/object"
)

func TestHasMethodNamed(t *testing.T) {
	s := articleSchema(t)
	in := populate(t, s)
	if in.HasMethodNamed("text") {
		t.Error("no bindings yet")
	}
	if err := in.BindMethod("Text", "text", func(*Instance, object.OID, []object.Value) (object.Value, error) {
		return object.String_("x"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if !in.HasMethodNamed("text") {
		t.Error("binding not found")
	}
	if in.HasMethodNamed("ext") {
		t.Error("suffix must not match")
	}
	if in.HasMethodNamed("Text::text") {
		t.Error("qualified names are not method names")
	}
}

func TestInvokeDiamondResolution(t *testing.T) {
	s := NewSchema()
	for _, c := range []string{"Top", "L", "R", "Bot"} {
		if err := s.AddClass(c, object.TupleOf()); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.AddInherits("L", "Top")
	_ = s.AddInherits("R", "Top")
	_ = s.AddInherits("Bot", "L")
	_ = s.AddInherits("Bot", "R")
	in := NewInstance(s)
	o, err := in.NewObject("Bot", object.NewTuple())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tag string) Method {
		return func(*Instance, object.OID, []object.Value) (object.Value, error) {
			return object.String_(tag), nil
		}
	}
	// Only Top binds: resolution climbs the diamond.
	if err := in.BindMethod("Top", "who", mk("top")); err != nil {
		t.Fatal(err)
	}
	got, err := in.Invoke(o, "who")
	if err != nil || !object.Equal(got, object.String_("top")) {
		t.Errorf("Invoke = %v %v", got, err)
	}
	// A nearer binding (breadth-first: L before Top) wins.
	if err := in.BindMethod("L", "who", mk("l")); err != nil {
		t.Fatal(err)
	}
	got, _ = in.Invoke(o, "who")
	if !object.Equal(got, object.String_("l")) {
		t.Errorf("nearest binding = %v", got)
	}
	// The receiver's own class wins over everything.
	if err := in.BindMethod("Bot", "who", mk("bot")); err != nil {
		t.Fatal(err)
	}
	got, _ = in.Invoke(o, "who")
	if !object.Equal(got, object.String_("bot")) {
		t.Errorf("own binding = %v", got)
	}
}

func TestSnapshotPreservesUnionRoots(t *testing.T) {
	s := NewSchema()
	u := object.UnionOf(
		object.TField{Name: "a", Type: object.IntType},
		object.TField{Name: "b", Type: object.StringType},
	)
	if err := s.AddRoot("U", object.ListOf(u)); err != nil {
		t.Fatal(err)
	}
	in := NewInstance(s)
	_ = in.SetRoot("U", object.NewList(
		object.NewUnion("a", object.Int(1)),
		object.NewUnion("b", object.String_("x")),
	))
	var buf bytes.Buffer
	if err := Save(&buf, in); err != nil {
		t.Fatal(err)
	}
	in2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := in.Root("U")
	v2, _ := in2.Root("U")
	if !object.Equal(v1, v2) {
		t.Errorf("union root changed: %s vs %s", v1, v2)
	}
	rt, _ := in2.Schema().RootType("U")
	if !object.TypeEqual(rt, object.ListOf(u)) {
		t.Errorf("union root type changed: %s", rt)
	}
}
