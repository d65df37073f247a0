package dtdmap

import (
	"fmt"
	"strconv"
	"strings"

	"sgmldb/internal/faultpoint"
	"sgmldb/internal/object"
	"sgmldb/internal/sgml"
	"sgmldb/internal/store"
)

// Fault-injection sites on the staging path: chaos tests arm these to
// fail a load mid-batch (after some documents are already staged) and at
// the very last step before the batch would succeed, asserting that the
// published instance is untouched either way.
var (
	fpLoadDoc = faultpoint.New("dtdmap/load-doc")
	fpSetRoot = faultpoint.New("dtdmap/set-root")
)

// Loader turns validated document instances into objects and values of the
// mapped schema — the "semantic actions" of Section 3. A Loader may ingest
// many documents into one instance; the document objects accumulate under
// the mapping's persistence root.
//
// Loads are atomic: each Load (or LoadAll batch) builds into a private
// copy-on-write layer over Instance and swings Instance to the layer only
// if the whole load succeeded. A failed load discards the layer, so the
// published instance never sees the partial objects a failed sibling or
// an unresolved IDREF would otherwise leave behind.
//
// A Loader is cheap and need not live long: the database facade stages
// every commit on a fresh one, adopted onto the published instance and
// its document list, and simply drops it — with its staged layer — when
// anything later in the commit fails.
type Loader struct {
	Mapping  *Mapping
	Instance *store.Instance
	docs     []object.OID

	// per-document ID bookkeeping
	idTargets   map[string]object.OID   // ID value -> object carrying it
	idReferrers map[string][]object.OID // ID value -> objects referencing it
	idFixups    []fixup
}

type fixup struct {
	obj  object.OID
	attr string
	ids  []string
	list bool
}

// NewLoader creates a loader over a fresh instance of the mapping's
// schema.
func NewLoader(m *Mapping) *Loader {
	return &Loader{Mapping: m, Instance: store.NewInstance(m.Schema)}
}

// Load ingests one parsed document and returns the oid of its document
// object. The persistence root (e.g. Articles) is updated to list every
// loaded document. On error the loader's instance is exactly what it was
// before the call: the half-built objects live only in a discarded
// copy-on-write layer.
func (l *Loader) Load(doc *sgml.Document) (object.OID, error) {
	oids, err := l.LoadAll([]*sgml.Document{doc})
	if err != nil {
		return 0, err
	}
	return oids[0], nil
}

// LoadAll ingests a batch of parsed documents into one copy-on-write
// layer, updating the persistence root once for the whole batch. The
// batch is all-or-nothing: if any document fails, none of them become
// visible and the loader's instance is unchanged.
func (l *Loader) LoadAll(docs []*sgml.Document) ([]object.OID, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	published := l.Instance
	nDocs := len(l.docs)
	l.Instance = published.Begin()
	// rollback restores the pre-batch state and eagerly discards the
	// abandoned staged layer — without the Discard, the dead layer (and
	// every half-built object in it) would stay reachable until the next
	// successful load replaced l.Instance.
	rollback := func() {
		staged := l.Instance
		l.Instance = published
		l.docs = l.docs[:nDocs]
		staged.Discard()
	}
	out := make([]object.OID, 0, len(docs))
	for _, doc := range docs {
		oid, err := l.loadOne(doc)
		if err != nil {
			rollback()
			return nil, err
		}
		out = append(out, oid)
	}
	vals := make([]object.Value, len(l.docs))
	for i, d := range l.docs {
		vals[i] = d
	}
	if err := fpSetRoot.Hit(); err != nil {
		rollback()
		return nil, err
	}
	if err := l.Instance.SetRoot(l.Mapping.RootName, object.NewList(vals...)); err != nil {
		rollback()
		return nil, err
	}
	return out, nil
}

// loadOne builds one document's objects into the current (staged)
// instance and appends its oid to docs; the caller handles rollback.
func (l *Loader) loadOne(doc *sgml.Document) (object.OID, error) {
	if err := fpLoadDoc.Hit(); err != nil {
		return 0, err
	}
	l.idTargets = make(map[string]object.OID)
	l.idReferrers = make(map[string][]object.OID)
	l.idFixups = nil
	oid, err := l.loadElement(doc.Root)
	if err != nil {
		return 0, err
	}
	if err := l.applyFixups(); err != nil {
		return 0, err
	}
	l.docs = append(l.docs, oid)
	return oid, nil
}

// Adopt swings the loader onto an existing instance and its document
// list (the value of the persistence root), so the next load builds on
// them: a published database version, or a snapshot decoded from a
// checkpoint rather than built by a chain of loads.
func (l *Loader) Adopt(inst *store.Instance, docs []object.OID) {
	l.Instance = inst
	l.docs = append(l.docs[:0], docs...)
}

// Documents returns the oids of the loaded document objects, in load
// order.
func (l *Loader) Documents() []object.OID {
	out := make([]object.OID, len(l.docs))
	copy(out, l.docs)
	return out
}

// loadElement creates the object for one element and, recursively, its
// logical components.
func (l *Loader) loadElement(e *sgml.Element) (object.OID, error) {
	decl, ok := l.Mapping.DTD.Element(e.Name)
	if !ok {
		return 0, fmt.Errorf("dtdmap: element %s not in the mapped DTD", e.Name)
	}
	class := l.Mapping.ClassFor(e.Name)
	attrFields, err := l.attrValues(e, decl)
	if err != nil {
		return 0, err
	}

	var structural []object.Field
	switch decl.Content.(type) {
	case sgml.PCData:
		structural = []object.Field{{Name: "content", Value: object.String_(e.Text())}}
	case sgml.Empty:
		if !fieldPresent(attrFields, "file") {
			structural = []object.Field{{Name: "file", Value: object.Nil{}}}
		}
	case sgml.AnyContent:
		var elems []object.Value
		for _, c := range e.ChildElements() {
			oid, err := l.loadElement(c)
			if err != nil {
				return 0, err
			}
			elems = append(elems, oid)
		}
		structural = []object.Field{{Name: "contents", Value: object.NewList(elems...)}}
	default:
		sh := l.Mapping.shapes[e.Name]
		v, err := l.buildShape(sh, e)
		if err != nil {
			return 0, fmt.Errorf("dtdmap: element %s: %w", e.Name, err)
		}
		// Align the value with the class type layout computed by
		// classTypeFor.
		switch x := v.(type) {
		case *object.Tuple:
			if _, isTuple := sh.(shapeTuple); isTuple {
				for i := 0; i < x.Len(); i++ {
					structural = append(structural, x.At(i))
				}
			} else {
				structural = []object.Field{{Name: fieldNameFor(sh), Value: v}}
			}
		case *object.Union_:
			if len(attrFields) == 0 {
				// The class type is the union itself.
				oid, err := l.newObject(e, class, x, attrFields)
				return oid, err
			}
			structural = []object.Field{{Name: "content", Value: v}}
		default:
			structural = []object.Field{{Name: fieldNameFor(sh), Value: v}}
		}
	}
	fields := append(structural, attrFields...)
	return l.newObject(e, class, object.NewTuple(dedupValueFields(fields)...), nil)
}

// newObject creates the object and records ID bookkeeping.
func (l *Loader) newObject(e *sgml.Element, class string, v object.Value, extra []object.Field) (object.OID, error) {
	if u, ok := v.(*object.Union_); ok && len(extra) > 0 {
		fields := append([]object.Field{{Name: "content", Value: u}}, extra...)
		v = object.NewTuple(dedupValueFields(fields)...)
	}
	oid, err := l.Instance.NewObject(class, v)
	if err != nil {
		return 0, err
	}
	decl, _ := l.Mapping.DTD.Element(e.Name)
	for _, a := range e.Attrs {
		def, ok := decl.Attr(a.Name)
		if !ok {
			continue
		}
		switch def.Type {
		case sgml.AttID:
			l.idTargets[a.Value] = oid
		case sgml.AttIDREF:
			l.idReferrers[a.Value] = append(l.idReferrers[a.Value], oid)
			l.idFixups = append(l.idFixups, fixup{obj: oid, attr: a.Name, ids: []string{a.Value}})
		case sgml.AttIDREFS:
			ids := strings.Fields(a.Value)
			for _, id := range ids {
				l.idReferrers[id] = append(l.idReferrers[id], oid)
			}
			l.idFixups = append(l.idFixups, fixup{obj: oid, attr: a.Name, ids: ids, list: true})
		}
	}
	return oid, nil
}

// applyFixups resolves IDREF attributes to oids and fills ID attributes
// with the lists of referencing objects.
func (l *Loader) applyFixups() error {
	for _, f := range l.idFixups {
		v, _ := l.Instance.Deref(f.obj)
		tup, ok := v.(*object.Tuple)
		if !ok {
			continue
		}
		if f.list {
			oids := make([]object.Value, 0, len(f.ids))
			for _, id := range f.ids {
				target, ok := l.idTargets[id]
				if !ok {
					return fmt.Errorf("dtdmap: unresolved IDREF %q", id)
				}
				oids = append(oids, target)
			}
			if err := l.Instance.SetValue(f.obj, tup.With(f.attr, object.NewList(oids...))); err != nil {
				return err
			}
		} else {
			target, ok := l.idTargets[f.ids[0]]
			if !ok {
				return fmt.Errorf("dtdmap: unresolved IDREF %q", f.ids[0])
			}
			if err := l.Instance.SetValue(f.obj, tup.With(f.attr, target)); err != nil {
				return err
			}
		}
	}
	// ID attributes: the list of referencing objects.
	for id, target := range l.idTargets {
		v, _ := l.Instance.Deref(target)
		tup, ok := v.(*object.Tuple)
		if !ok {
			continue
		}
		attr := l.idAttrName(target)
		if attr == "" {
			continue
		}
		refs := l.idReferrers[id]
		vals := make([]object.Value, len(refs))
		for i, r := range refs {
			vals[i] = r
		}
		if err := l.Instance.SetValue(target, tup.With(attr, object.NewList(vals...))); err != nil {
			return err
		}
	}
	return nil
}

// idAttrName finds the declared ID attribute of an object's element.
func (l *Loader) idAttrName(oid object.OID) string {
	class, _ := l.Instance.ClassOf(oid)
	elem := l.Mapping.ElementFor(class)
	if elem == "" {
		return ""
	}
	decl, _ := l.Mapping.DTD.Element(elem)
	for _, a := range decl.Attrs {
		if a.Type == sgml.AttID {
			return a.Name
		}
	}
	return ""
}

// attrValues builds the private attribute fields for an element.
func (l *Loader) attrValues(e *sgml.Element, decl *sgml.ElementDecl) ([]object.Field, error) {
	var out []object.Field
	for _, def := range decl.Attrs {
		given, ok := e.Attr(def.Name)
		var v object.Value = object.Nil{}
		if ok {
			switch def.Type {
			case sgml.AttNUMBER:
				n, err := strconv.Atoi(given)
				if err != nil {
					return nil, fmt.Errorf("dtdmap: attribute %s: %w", def.Name, err)
				}
				v = object.Int(n)
			case sgml.AttID, sgml.AttIDREFS:
				v = object.NewList() // filled by fixups
			case sgml.AttIDREF:
				v = object.Nil{} // filled by fixups
			default:
				v = object.String_(given)
			}
		} else if def.Type == sgml.AttID {
			v = object.NewList()
		}
		out = append(out, object.Field{Name: def.Name, Value: v})
	}
	return out, nil
}

// buildShape matches an element's children against the compiled shape and
// builds the corresponding value, creating objects for child elements. The
// match runs twice: a dry pass that only verifies structure (so that
// discarded union alternatives create no objects), then an executing pass
// along the same, deterministic path.
func (l *Loader) buildShape(sh shape, e *sgml.Element) (object.Value, error) {
	nodes := contentNodes(e)
	if _, rest, err := l.match(sh, nodes, false); err != nil {
		return nil, err
	} else if len(rest) > 0 {
		return nil, fmt.Errorf("unmatched content starting at %s", nodeName(rest[0]))
	}
	v, _, err := l.match(sh, nodes, true)
	return v, err
}

// contentNodes returns the element's significant content: child elements
// and non-blank text runs.
func contentNodes(e *sgml.Element) []sgml.Node {
	var out []sgml.Node
	for _, c := range e.Children {
		switch x := c.(type) {
		case sgml.Text:
			if strings.TrimSpace(string(x)) != "" {
				out = append(out, x)
			}
		case *sgml.Element:
			out = append(out, x)
		}
	}
	return out
}

func nodeName(n sgml.Node) string {
	switch x := n.(type) {
	case sgml.Text:
		return "#PCDATA"
	case *sgml.Element:
		return x.Name
	}
	return "?"
}

// match consumes nodes against a shape, returning the built value and the
// unconsumed suffix. With exec false the match is a dry run: it verifies
// structure and computes the consumption without creating any objects
// (the returned value is nil). With exec true it builds the value; every
// decision point (greedy lists, union alternative selection) is
// deterministic, so an exec pass that follows a successful dry pass takes
// the identical path.
func (l *Loader) match(sh shape, nodes []sgml.Node, exec bool) (object.Value, []sgml.Node, error) {
	switch x := sh.(type) {
	case shapeElem:
		if len(nodes) == 0 {
			return nil, nodes, fmt.Errorf("expected element %s, found end of content", x.elem)
		}
		el, ok := nodes[0].(*sgml.Element)
		if !ok || el.Name != x.elem {
			return nil, nodes, fmt.Errorf("expected element %s, found %s", x.elem, nodeName(nodes[0]))
		}
		if !exec {
			return nil, nodes[1:], nil
		}
		oid, err := l.loadElement(el)
		if err != nil {
			return nil, nodes, err
		}
		return oid, nodes[1:], nil
	case shapePCData:
		if len(nodes) == 0 {
			return nil, nodes, fmt.Errorf("expected character data, found end of content")
		}
		txt, ok := nodes[0].(sgml.Text)
		if !ok {
			return nil, nodes, fmt.Errorf("expected character data, found %s", nodeName(nodes[0]))
		}
		if !exec {
			return nil, nodes[1:], nil
		}
		oid, err := l.Instance.NewObject(TextClass, object.NewTuple(
			object.Field{Name: "content", Value: object.String_(strings.TrimSpace(string(txt)))}))
		if err != nil {
			return nil, nodes, err
		}
		return oid, nodes[1:], nil
	case shapeOpt:
		if _, rest, err := l.match(x.inner, nodes, false); err == nil {
			if !exec {
				return nil, rest, nil
			}
			v, rest, err := l.match(x.inner, nodes, true)
			return v, rest, err
		}
		if !exec {
			return nil, nodes, nil
		}
		return object.Nil{}, nodes, nil
	case shapeList:
		var elems []object.Value
		rest := nodes
		n := 0
		for {
			if _, r, err := l.match(x.inner, rest, false); err == nil && len(r) < len(rest) {
				if exec {
					v, _, err := l.match(x.inner, rest, true)
					if err != nil {
						return nil, nodes, err
					}
					elems = append(elems, v)
				}
				rest = r
				n++
				continue
			}
			break
		}
		if x.required && n == 0 {
			return nil, nodes, fmt.Errorf("expected at least one %s", describeShape(x.inner))
		}
		if !exec {
			return nil, rest, nil
		}
		return object.NewList(elems...), rest, nil
	case shapeTuple:
		fields := make([]object.Field, 0, len(x.fields))
		rest := nodes
		for _, f := range x.fields {
			v, r, err := l.match(f.inner, rest, exec)
			if err != nil {
				return nil, nodes, err
			}
			if exec {
				fields = append(fields, object.Field{Name: f.name, Value: v})
			}
			rest = r
		}
		if !exec {
			return nil, rest, nil
		}
		return object.NewTuple(fields...), rest, nil
	case shapeUnion:
		// Dry-run each alternative; the one that consumes the most content
		// wins, with earlier (declared-first) alternatives preferred on a
		// tie — the paper's a1 branch.
		bestIdx := -1
		var bestRest []sgml.Node
		for i, alt := range x.alts {
			_, r, err := l.match(alt.inner, nodes, false)
			if err != nil {
				continue
			}
			if bestIdx < 0 || len(r) < len(bestRest) {
				bestIdx = i
				bestRest = r
			}
		}
		if bestIdx < 0 {
			return nil, nodes, fmt.Errorf("no union alternative matches content starting at %s",
				nodeNameOrEnd(nodes))
		}
		if !exec {
			return nil, bestRest, nil
		}
		alt := x.alts[bestIdx]
		v, rest, err := l.match(alt.inner, nodes, true)
		if err != nil {
			return nil, nodes, err
		}
		return object.NewUnion(alt.marker, v), rest, nil
	default:
		return nil, nodes, fmt.Errorf("dtdmap: unsupported shape %T", sh)
	}
}

func nodeNameOrEnd(nodes []sgml.Node) string {
	if len(nodes) == 0 {
		return "end of content"
	}
	return nodeName(nodes[0])
}

func describeShape(sh shape) string {
	switch x := sh.(type) {
	case shapeElem:
		return x.elem
	case shapePCData:
		return "#PCDATA"
	default:
		return "group"
	}
}

// fieldNameFor names the single structural field when the class type wraps
// a non-tuple shape.
func fieldNameFor(sh shape) string {
	if n := sh.suggestion(); n != "" {
		return n
	}
	switch sh.(type) {
	case shapeList:
		return "items"
	default:
		return "content"
	}
}

func fieldPresent(fields []object.Field, name string) bool {
	for _, f := range fields {
		if f.Name == name {
			return true
		}
	}
	return false
}

// dedupValueFields mirrors dedupFields for values.
func dedupValueFields(fields []object.Field) []object.Field {
	used := map[string]int{}
	out := make([]object.Field, len(fields))
	for i, f := range fields {
		used[f.Name]++
		if used[f.Name] > 1 {
			f.Name = fmt.Sprintf("%s%d", f.Name, used[f.Name])
		}
		out[i] = f
	}
	return out
}
