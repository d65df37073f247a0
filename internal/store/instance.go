package store

import (
	"fmt"
	"sort"

	"sgmldb/internal/object"
)

// Method is an executable method body registered against a signature in M:
// the μ component of an instance assigns one to each method name.
type Method func(inst *Instance, recv object.OID, args []object.Value) (object.Value, error)

// Instance is a 4-tuple (π, ν, μ, γ) over a schema (Section 5.1):
//
//   - π assigns each class a disjoint finite set of oids (the inherited
//     assignment π(c) = ∪{π_d(c') | c' ≺* c} is derived on demand);
//   - ν maps each oid to a value of the correct type;
//   - μ assigns executable semantics to method names;
//   - γ assigns each persistence root a value of its declared type.
//
// Concurrency: an Instance is versioned copy-on-write (see cow.go). The
// readers (Deref, ClassOf, Root, Extent, …) are map and page lookups
// through the layer chain and safe to call from any number of goroutines,
// provided no mutator (NewObject, SetValue, SetRoot, BindMethod) runs on
// the same layer at the same time. The sgmldb facade never mutates a
// published layer: writers stage into a private Begin layer and publish
// it with an atomic pointer swap, so the hot query path pays no per-Deref
// synchronisation and never blocks on a load.
//
// Oids are dense: NewObject hands them out in ascending order from 1 and
// nothing removes an object, so π_d(c) in creation order is π_d(c) by
// ascending oid, derived by scanning rather than kept per class.
type Instance struct {
	schema *Schema
	nextID object.OID

	// base is the copy-on-write parent layer (nil for a flat instance):
	// reads fall through to it on a miss, mutations stay in this layer.
	base  *Instance
	depth int    // chain length below this layer
	epoch uint64 // version number, bumped by Begin

	// A flat instance keeps π_d and ν in pages by oid range. A page this
	// instance did not make (owned[k] false) is shared with the instance
	// it was flattened from and is copied before its first write.
	pages []*page
	owned []bool
	count int // objects in pages

	// A delta layer keeps π_d and ν of the objects it staged in maps.
	class  map[object.OID]string       // π_d, by oid (this layer only)
	values map[object.OID]object.Value // ν (this layer only)

	roots  map[string]object.Value // γ (this layer only)
	method map[string]Method       // μ, keyed Class::Name (this layer only)
}

// pageBits sizes a page: 256 oids, 8 KiB, so a flatten that rewrites the
// pages of eight single-document loads copies a few pages.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// page holds π_d and ν of the oids [k·pageSize, (k+1)·pageSize); an
// unassigned oid has a nil value.
type page struct {
	class  [pageSize]string
	values [pageSize]object.Value
}

// NewInstance returns an empty instance of the schema.
func NewInstance(schema *Schema) *Instance {
	return &Instance{
		schema: schema,
		nextID: 1,
		roots:  make(map[string]object.Value),
		method: make(map[string]Method),
	}
}

// flat reports whether the instance is a flat (bottom) layer.
func (in *Instance) flat() bool { return in.base == nil }

// slot locates oid o in a flat instance's pages, or returns a nil page.
func (in *Instance) slot(o object.OID) (*page, int) {
	k := uint64(o) >> pageBits
	if k >= uint64(len(in.pages)) {
		return nil, 0
	}
	return in.pages[k], int(o & (pageSize - 1))
}

// writableSlot locates oid o in a flat instance's pages for a write,
// first copying a page shared with an older instance, or making it.
func (in *Instance) writableSlot(o object.OID) (*page, int) {
	k := int(uint64(o) >> pageBits)
	for len(in.pages) <= k {
		in.pages = append(in.pages, nil)
		in.owned = append(in.owned, true)
	}
	switch p := in.pages[k]; {
	case p == nil:
		in.pages[k] = new(page)
	case !in.owned[k]:
		cp := *p
		in.pages[k], in.owned[k] = &cp, true
	}
	return in.pages[k], int(o & (pageSize - 1))
}

// create assigns π_d(o) and ν(o) of a new object in this layer.
func (in *Instance) create(o object.OID, class string, v object.Value) {
	if !in.flat() {
		in.class[o] = class
		in.values[o] = v
		return
	}
	p, i := in.writableSlot(o)
	if p.values[i] == nil {
		in.count++
	}
	p.class[i], p.values[i] = class, v
}

// put assigns ν(o) of an existing object in this layer.
func (in *Instance) put(o object.OID, v object.Value) {
	if !in.flat() {
		in.values[o] = v
		return
	}
	p, i := in.writableSlot(o)
	p.values[i] = v
}

// Schema returns the schema the instance conforms to.
func (in *Instance) Schema() *Schema { return in.schema }

// NewObject creates an object of the given class with value v and returns
// its fresh oid. The class must be declared; the value is checked lazily by
// Check, not here, so that mutually referencing objects can be built in any
// order.
func (in *Instance) NewObject(class string, v object.Value) (object.OID, error) {
	if !in.schema.Hierarchy().Has(class) {
		return 0, fmt.Errorf("store: new object of undeclared class %q", class)
	}
	o := in.nextID
	in.nextID++
	if v == nil {
		v = object.Nil{}
	}
	in.create(o, class, v)
	return o, nil
}

// SetValue updates ν(o). On a copy-on-write layer the new value shadows
// the base layer's; the base itself is untouched.
func (in *Instance) SetValue(o object.OID, v object.Value) error {
	if _, ok := in.ClassOf(o); !ok {
		return fmt.Errorf("store: set value of unknown oid %s", o)
	}
	if v == nil {
		v = object.Nil{}
	}
	in.put(o, v)
	return nil
}

// Deref returns ν(o) and whether the oid is assigned: the delta layers'
// maps, then one page lookup.
func (in *Instance) Deref(o object.OID) (object.Value, bool) {
	l := in
	for ; !l.flat(); l = l.base {
		if v, ok := l.values[o]; ok {
			return v, true
		}
	}
	if p, i := l.slot(o); p != nil && p.values[i] != nil {
		return p.values[i], true
	}
	return nil, false
}

// ClassOf returns the (most specific) class of an oid under π_d.
func (in *Instance) ClassOf(o object.OID) (string, bool) {
	l := in
	for ; !l.flat(); l = l.base {
		if c, ok := l.class[o]; ok {
			return c, true
		}
	}
	if p, i := l.slot(o); p != nil && p.values[i] != nil {
		return p.class[i], true
	}
	return "", false
}

// Extent returns π(c): the oids of class c and all of its subclasses, in
// creation order.
func (in *Instance) Extent(c string) []object.OID {
	subs := make(map[string]bool)
	for _, s := range in.schema.Hierarchy().Subclasses(c) {
		subs[s] = true
	}
	var out []object.OID
	in.eachObject(func(o object.OID, c string, _ object.Value) {
		if subs[c] {
			out = append(out, o)
		}
	})
	return out
}

// DirectExtent returns π_d(c): the oids created directly in class c, in
// creation order.
func (in *Instance) DirectExtent(c string) []object.OID {
	var out []object.OID
	in.eachObject(func(o object.OID, oc string, _ object.Value) {
		if oc == c {
			out = append(out, o)
		}
	})
	return out
}

// Objects returns every assigned oid in ascending order.
func (in *Instance) Objects() []object.OID {
	out := make([]object.OID, 0, in.NumObjects())
	in.eachObject(func(o object.OID, _ string, _ object.Value) { out = append(out, o) })
	return out
}

// NumObjects reports |O|. Oids are created exactly once (nextID carries
// over into copy-on-write layers), so the per-layer counts are disjoint.
func (in *Instance) NumObjects() int {
	l := in
	n := 0
	for ; !l.flat(); l = l.base {
		n += len(l.class)
	}
	return n + l.count
}

// SetRoot assigns γ(name) = v. The root must be declared in the schema.
func (in *Instance) SetRoot(name string, v object.Value) error {
	if _, ok := in.schema.RootType(name); !ok {
		return fmt.Errorf("store: undeclared persistence root %q", name)
	}
	if v == nil {
		v = object.Nil{}
	}
	in.roots[name] = v
	return nil
}

// Root returns γ(name) and whether it has been assigned.
func (in *Instance) Root(name string) (object.Value, bool) {
	for l := in; l != nil; l = l.base {
		if v, ok := l.roots[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// BindMethod attaches the executable body for Class::Name.
func (in *Instance) BindMethod(class, name string, m Method) error {
	if !in.schema.Hierarchy().Has(class) {
		return fmt.Errorf("store: method on undeclared class %q", class)
	}
	in.method[class+"::"+name] = m
	return nil
}

// HasMethodNamed reports whether any class binds a method with this name
// (used by the calculus to decide whether a function call is a method
// dispatch).
func (in *Instance) HasMethodNamed(name string) bool {
	for l := in; l != nil; l = l.base {
		for key := range l.method {
			if i := len(key) - len(name); i > 2 && key[i:] == name && key[i-2:i] == "::" {
				return true
			}
		}
	}
	return false
}

// methodOf resolves μ(key) through the layer chain.
func (in *Instance) methodOf(key string) (Method, bool) {
	for l := in; l != nil; l = l.base {
		if m, ok := l.method[key]; ok {
			return m, true
		}
	}
	return nil, false
}

// Invoke runs method name on receiver o, resolving the body along the
// inheritance order (most specific class first).
func (in *Instance) Invoke(o object.OID, name string, args ...object.Value) (object.Value, error) {
	c, ok := in.ClassOf(o)
	if !ok {
		return nil, fmt.Errorf("store: invoke on unknown oid %s", o)
	}
	// Walk c then its superclasses (breadth-first) for a binding.
	queue := []string{c}
	seen := map[string]bool{c: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if m, ok := in.methodOf(cur + "::" + name); ok {
			return m(in, o, args)
		}
		for _, p := range in.schema.Hierarchy().Parents(cur) {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return nil, fmt.Errorf("store: no method %q on class %s", name, c)
}

// Check validates the instance against the schema:
//
//   - every object value is in the domain of its class type
//     (ν(o) ∈ dom(σ(c)) for o ∈ π_d(c));
//   - every assigned root value is in the domain of its declared type;
//   - every oid reachable from a value is assigned;
//   - every class constraint holds on every object of the class.
//
// It returns all violations, not only the first.
func (in *Instance) Check() []error {
	var errs []error
	h := in.schema.Hierarchy()
	classOf := func(o object.OID) (string, bool) { return in.ClassOf(o) }
	assigned := func(o object.OID) bool { _, ok := in.Deref(o); return ok }
	extents := make(map[string][]object.OID)
	in.eachObject(func(o object.OID, c string, _ object.Value) { extents[c] = append(extents[c], o) })
	for _, c := range h.Classes() {
		t, _ := h.TypeOf(c)
		for _, o := range extents[c] {
			v, _ := in.Deref(o)
			if !object.MemberOf(v, t, h, classOf) {
				errs = append(errs, fmt.Errorf("store: ν(%s) = %s is not in dom(σ(%s)) = %s", o, v, c, t))
			}
			if dangling := danglingOIDs(v, assigned); len(dangling) > 0 {
				errs = append(errs, fmt.Errorf("store: object %s references unassigned oids %v", o, dangling))
			}
			for _, con := range in.schema.Constraints(c) {
				if !con.Holds(v, in.Deref) {
					errs = append(errs, ConstraintViolation{Class: c, OID: o, Constraint: con})
				}
			}
		}
	}
	for _, g := range in.schema.Roots() {
		v, ok := in.Root(g)
		if !ok {
			continue
		}
		t, _ := in.schema.RootType(g)
		if !object.MemberOf(v, t, h, classOf) {
			errs = append(errs, fmt.Errorf("store: γ(%s) = %s is not in dom(%s)", g, v, t))
		}
		if dangling := danglingOIDs(v, assigned); len(dangling) > 0 {
			errs = append(errs, fmt.Errorf("store: root %s references unassigned oids %v", g, dangling))
		}
	}
	return errs
}

// danglingOIDs collects oids mentioned in v that are not assigned.
func danglingOIDs(v object.Value, assigned func(object.OID) bool) []object.OID {
	var out []object.OID
	var walk func(object.Value)
	walk = func(v object.Value) {
		switch x := v.(type) {
		case object.OID:
			if !assigned(x) {
				out = append(out, x)
			}
		case *object.Tuple:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i).Value)
			}
		case *object.List:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i))
			}
		case *object.Set:
			for i := 0; i < x.Len(); i++ {
				walk(x.At(i))
			}
		case *object.Union_:
			walk(x.Value)
		default:
			// atoms and nil contain no oids
		}
	}
	walk(v)
	return out
}

// Stats summarises the instance for the storage-overhead experiment (B4).
type Stats struct {
	Objects     int            // |O|
	PerClass    map[string]int // |π_d(c)|
	ValueBytes  int            // canonical encoding size of all ν values
	RootValues  int
	Roots       []string
	MethodCount int
}

// Stats computes instance statistics.
func (in *Instance) Stats() Stats {
	st := Stats{
		Objects:  in.NumObjects(),
		PerClass: make(map[string]int),
	}
	methods := make(map[string]bool)
	for l := in; l != nil; l = l.base {
		for k := range l.method {
			methods[k] = true
		}
	}
	st.MethodCount = len(methods)
	in.eachObject(func(_ object.OID, c string, v object.Value) {
		st.PerClass[c]++
		st.ValueBytes += len(object.Key(v))
	})
	in.eachRoot(func(g string, v object.Value) {
		st.Roots = append(st.Roots, g)
		st.RootValues++
		st.ValueBytes += len(object.Key(v))
	})
	sort.Strings(st.Roots)
	return st
}
