package store

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sgmldb/internal/object"
)

// cowSchema builds a minimal schema for the COW tests: one class with a
// free-form tuple type and a plural root.
func cowSchema(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	if err := s.AddClass("Doc", object.TupleOf(object.TField{Name: "n", Type: object.IntType})); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRoot("Docs", object.ListOf(object.Class("Doc"))); err != nil {
		t.Fatal(err)
	}
	return s
}

func newDoc(t *testing.T, in *Instance, n int) object.OID {
	t.Helper()
	o, err := in.NewObject("Doc", object.NewTuple(object.Field{Name: "n", Value: object.Int(n)}))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestBeginStagesWithoutTouchingBase is the atomicity core: mutations on
// a Begin layer are invisible from the base, and discarding the layer
// discards them wholesale.
func TestBeginStagesWithoutTouchingBase(t *testing.T) {
	in := NewInstance(cowSchema(t))
	d1 := newDoc(t, in, 1)
	if err := in.SetRoot("Docs", object.NewList(d1)); err != nil {
		t.Fatal(err)
	}

	staged := in.Begin()
	if staged.Epoch() != in.Epoch()+1 {
		t.Errorf("staged epoch = %d, base %d", staged.Epoch(), in.Epoch())
	}
	d2 := newDoc(t, staged, 2)
	if err := staged.SetRoot("Docs", object.NewList(d1, d2)); err != nil {
		t.Fatal(err)
	}

	// The staged layer sees both objects and the new root …
	if staged.NumObjects() != 2 {
		t.Errorf("staged NumObjects = %d", staged.NumObjects())
	}
	if v, ok := staged.Deref(d2); !ok || v == nil {
		t.Error("staged Deref(d2) failed")
	}
	if r, _ := staged.Root("Docs"); r.(*object.List).Len() != 2 {
		t.Errorf("staged root = %s", r)
	}
	if got := staged.Extent("Doc"); len(got) != 2 || got[0] != d1 || got[1] != d2 {
		t.Errorf("staged extent = %v", got)
	}

	// … while the base is untouched: d2 simply never happened.
	if in.NumObjects() != 1 {
		t.Errorf("base NumObjects = %d after staging", in.NumObjects())
	}
	if _, ok := in.Deref(d2); ok {
		t.Error("staged object leaked into base")
	}
	if r, _ := in.Root("Docs"); r.(*object.List).Len() != 1 {
		t.Errorf("base root = %s", r)
	}
	if errs := in.Check(); len(errs) != 0 {
		t.Errorf("base Check after discarded staging: %v", errs)
	}
}

// TestCOWSetValueShadowsBase checks that a staged SetValue on an old oid
// shadows rather than overwrites.
func TestCOWSetValueShadowsBase(t *testing.T) {
	in := NewInstance(cowSchema(t))
	d1 := newDoc(t, in, 1)
	staged := in.Begin()
	if err := staged.SetValue(d1, object.NewTuple(object.Field{Name: "n", Value: object.Int(99)})); err != nil {
		t.Fatal(err)
	}
	sv, _ := staged.Deref(d1)
	n, _ := sv.(*object.Tuple).Get("n")
	if n != object.Int(99) {
		t.Errorf("staged value = %s", sv)
	}
	bv, _ := in.Deref(d1)
	bn, _ := bv.(*object.Tuple).Get("n")
	if bn != object.Int(1) {
		t.Errorf("base value mutated: %s", bv)
	}
}

// TestCOWFlattenBoundsDepth loads through many Begin generations and
// checks the chain is bounded and the contents survive flattening intact.
func TestCOWFlattenBoundsDepth(t *testing.T) {
	in := NewInstance(cowSchema(t))
	var oids []object.OID
	for i := 0; i < 4*maxCOWDepth; i++ {
		staged := in.Begin()
		oids = append(oids, newDoc(t, staged, i))
		vals := make([]object.Value, len(oids))
		for j, o := range oids {
			vals[j] = o
		}
		if err := staged.SetRoot("Docs", object.NewList(vals...)); err != nil {
			t.Fatal(err)
		}
		in = staged // publish
		if in.Depth() > maxCOWDepth {
			t.Fatalf("generation %d: depth %d exceeds bound %d", i, in.Depth(), maxCOWDepth)
		}
	}
	if in.NumObjects() != 4*maxCOWDepth {
		t.Errorf("NumObjects = %d", in.NumObjects())
	}
	ext := in.Extent("Doc")
	if len(ext) != 4*maxCOWDepth {
		t.Fatalf("extent = %d oids", len(ext))
	}
	for i, o := range ext {
		if o != oids[i] {
			t.Fatalf("extent[%d] = %s, want %s (creation order must survive flatten)", i, o, oids[i])
		}
		v, ok := in.Deref(o)
		if !ok {
			t.Fatalf("Deref(%s) lost after flatten", o)
		}
		n, _ := v.(*object.Tuple).Get("n")
		if n != object.Int(i) {
			t.Errorf("ν(%s) = %s, want n=%d", o, v, i)
		}
	}
	if errs := in.Check(); len(errs) != 0 {
		t.Errorf("Check after %d generations: %v", 4*maxCOWDepth, errs)
	}
	if st := in.Stats(); st.Objects != 4*maxCOWDepth || st.RootValues != 1 {
		t.Errorf("Stats = %+v", st)
	}
}

// TestCOWMethodsAcrossLayers checks μ resolution through the chain.
func TestCOWMethodsAcrossLayers(t *testing.T) {
	in := NewInstance(cowSchema(t))
	d1 := newDoc(t, in, 1)
	if err := in.BindMethod("Doc", "n2", func(inst *Instance, recv object.OID, _ []object.Value) (object.Value, error) {
		v, _ := inst.Deref(recv)
		n, _ := v.(*object.Tuple).Get("n")
		return object.Int(int(n.(object.Int)) * 2), nil
	}); err != nil {
		t.Fatal(err)
	}
	staged := in.Begin()
	if !staged.HasMethodNamed("n2") {
		t.Error("HasMethodNamed must see base-layer methods")
	}
	got, err := staged.Invoke(d1, "n2")
	if err != nil {
		t.Fatal(err)
	}
	if got != object.Int(2) {
		t.Errorf("Invoke = %s", got)
	}
}

// TestSchemaCloneIsolatesRoots checks that declaring a root on a cloned
// schema leaves the original untouched and moves only the clone's
// version.
func TestSchemaCloneIsolatesRoots(t *testing.T) {
	s := cowSchema(t)
	v0 := s.Version()
	c := s.Clone()
	if c.Version() != v0 {
		t.Errorf("clone version = %d, want %d", c.Version(), v0)
	}
	if err := c.AddRoot("extra", object.Class("Doc")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.RootType("extra"); ok {
		t.Error("AddRoot on clone leaked into original")
	}
	if _, ok := c.RootType("extra"); !ok {
		t.Error("clone missing its own root")
	}
	if s.Version() != v0 {
		t.Errorf("original version moved to %d", s.Version())
	}
	if c.Version() != v0+1 {
		t.Errorf("clone version = %d, want %d", c.Version(), v0+1)
	}
	// The hierarchy is shared: both see the classes.
	if !c.Hierarchy().Has("Doc") {
		t.Error("clone lost the hierarchy")
	}
}

// TestSnapshotPinsEpoch checks the Snapshot accessor.
func TestSnapshotPinsEpoch(t *testing.T) {
	in := NewInstance(cowSchema(t))
	snap := in.Snapshot()
	staged := in.Begin()
	if snap.Epoch != 0 || snap.Inst != in {
		t.Errorf("snapshot = %+v", snap)
	}
	if staged.Snapshot().Epoch != 1 {
		t.Errorf("staged snapshot epoch = %d", staged.Snapshot().Epoch)
	}
}

// TestCOWSaveRoundTrip checks that snapshot persistence sees through the
// layer chain: a chained instance saves and reloads to the same contents.
func TestCOWSaveRoundTrip(t *testing.T) {
	in := NewInstance(cowSchema(t))
	for i := 0; i < 3; i++ {
		staged := in.Begin()
		o := newDoc(t, staged, i)
		if err := staged.SetRoot("Docs", object.NewList(o)); err != nil {
			t.Fatal(err)
		}
		in = staged
	}
	var buf bytes.Buffer
	if err := Save(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumObjects() != in.NumObjects() {
		t.Errorf("reloaded objects = %d, want %d", got.NumObjects(), in.NumObjects())
	}
	for _, o := range in.Objects() {
		want, _ := in.Deref(o)
		v, ok := got.Deref(o)
		if !ok || !object.Equal(v, want) {
			t.Errorf("reloaded ν(%s) = %v, want %s", o, v, want)
		}
	}
}

// TestDiscardReleasesLayer pins the eager-release contract: Discard drops
// the staged layer's maps and its base reference, so an abandoned load's
// staging is garbage immediately — not retained until the next successful
// load happens to replace the pointer.
func TestDiscardReleasesLayer(t *testing.T) {
	in := NewInstance(cowSchema(t))
	staged := in.Begin()
	newDoc(t, staged, 1)
	staged.Discard()
	if staged.base != nil {
		t.Error("Discard kept the base reference")
	}
	if staged.class != nil || staged.values != nil || staged.pages != nil || staged.roots != nil || staged.method != nil {
		t.Error("Discard kept staged maps alive")
	}
	// The base is untouched and stageable again.
	if in.NumObjects() != 0 {
		t.Errorf("base NumObjects = %d after discard", in.NumObjects())
	}
	again := in.Begin()
	newDoc(t, again, 2)
	if again.NumObjects() != 1 {
		t.Errorf("restaged NumObjects = %d", again.NumObjects())
	}
}

// TestSetEpoch pins the recovery re-anchoring hook: a deserialized
// instance continues the pre-crash epoch sequence.
func TestSetEpoch(t *testing.T) {
	in := NewInstance(cowSchema(t))
	in.SetEpoch(41)
	if in.Epoch() != 41 {
		t.Fatalf("Epoch = %d, want 41", in.Epoch())
	}
	if got := in.Begin().Epoch(); got != 42 {
		t.Errorf("Begin after SetEpoch: epoch = %d, want 42", got)
	}
}

// TestFlattenSharesUntouchedPages pins what a flatten costs: the new flat
// instance shares every page the merged layers did not write with the
// old flat instance, copies the ones they wrote, and copies a shared page
// again before writing into it, so the old version never changes.
func TestFlattenSharesUntouchedPages(t *testing.T) {
	in := NewInstance(cowSchema(t))
	for i := 0; i < 3*pageSize; i++ { // pages 0, 1 and 2 (oid 0 is never used)
		newDoc(t, in, i)
	}
	base := in
	rewritten := object.OID(5) // in page 0
	for i := 0; in.Depth() < maxCOWDepth; i++ {
		staged := in.Begin()
		newDoc(t, staged, 1000+i)
		if i == 0 {
			if err := staged.SetValue(rewritten, object.NewTuple(object.Field{Name: "n", Value: object.Int(-1)})); err != nil {
				t.Fatal(err)
			}
		}
		in = staged
	}
	f := in.Begin()
	if f.Depth() != 0 {
		t.Fatalf("Begin at depth %d did not flatten", maxCOWDepth)
	}
	if f.pages[1] != base.pages[1] {
		t.Error("a page no merged layer wrote was copied")
	}
	for _, k := range []int{0, 3} {
		if f.pages[k] == base.pages[k] {
			t.Errorf("page %d, written by a merged layer, is shared", k)
		}
	}
	if got, want := f.NumObjects(), in.NumObjects(); got != want {
		t.Errorf("flattened NumObjects = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(f.Objects(), in.Objects()) || !reflect.DeepEqual(f.Extent("Doc"), in.Extent("Doc")) {
		t.Error("flattened objects or extent differ from the chain's")
	}
	for _, o := range in.Objects() {
		want, _ := in.Deref(o)
		if got, ok := f.Deref(o); !ok || !object.Equal(got, want) {
			t.Fatalf("flattened ν(%s) = %v, want %s", o, got, want)
		}
	}
	// Writing through the flattened instance into a shared page copies it.
	shared := object.OID(pageSize + 7)
	before, _ := base.Deref(shared)
	if err := f.SetValue(shared, object.NewTuple(object.Field{Name: "n", Value: object.Int(-2)})); err != nil {
		t.Fatal(err)
	}
	if f.pages[1] == base.pages[1] {
		t.Error("a write into a shared page did not copy it")
	}
	if after, _ := base.Deref(shared); !object.Equal(after, before) {
		t.Errorf("a write through the flattened instance changed the old version: %s", after)
	}
	if after, _ := in.Deref(shared); !object.Equal(after, before) {
		t.Errorf("a write through the flattened instance changed the chain: %s", after)
	}
}

// TestLoadRefusesOutOfSequenceOIDs: a snapshot's objects carry the dense
// oids Save writes, 1, 2, 3, … in order; anything else is refused rather
// than sized into pages.
func TestLoadRefusesOutOfSequenceOIDs(t *testing.T) {
	for _, objs := range []string{
		"object 2 3:Doc vn\n",
		"object 1 3:Doc vn\nobject 1 3:Doc vn\n",
		"object 1 3:Doc vn\nobject 18446744073709551615 3:Doc vn\n",
	} {
		src := snapshotMagic + "\nclass 3:Doc ti\n" + objs + "end\n"
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Errorf("Load accepted %q", objs)
		}
	}
	src := snapshotMagic + "\nclass 3:Doc ti\nobject 1 3:Doc vi4;\nobject 2 3:Doc vi5;\nend\n"
	in, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Deref(2); v != object.Int(5) || in.NumObjects() != 2 {
		t.Errorf("loaded ν(o2) = %v, NumObjects = %d", v, in.NumObjects())
	}
	if o, err := in.NewObject("Doc", object.Int(6)); err != nil || o != 3 {
		t.Errorf("next oid after load = %v (%v), want o3", o, err)
	}
}
