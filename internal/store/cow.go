package store

import (
	"slices"

	"sgmldb/internal/object"
)

// Copy-on-write instance versions. A document load must be atomic: either
// every object it creates becomes visible, or none does. Mutating the
// shared (π, ν, μ, γ) in place cannot provide that — an error halfway
// through a load leaves orphan objects behind — and it forces readers to
// block for the whole load. Instead, writers stage their changes in a
// private *delta layer* chained over the published instance (Begin), and
// the owner publishes the staged layer with one atomic pointer swap only
// if the whole load succeeded. A failed load simply drops the layer.
//
// Readers that pinned the old version keep reading it: published layers
// are never mutated again, so pinned reads need no locks at all. The
// layer chain is bounded by maxCOWDepth — Begin flattens the chain into a
// fresh flat instance once it grows that deep, so a read walks at most
// that many small delta maps and then does one page lookup.
//
// A flat instance keeps π_d and ν in pages of consecutive oids (oids are
// dense and ascending), and flattening costs what the merged layers
// wrote, not what the instance holds: the new flat instance copies the
// page-pointer table and only the pages the delta layers wrote into,
// sharing every other page with the old flat instance. Since a load only
// creates objects, those are the few pages at the end. A shared page is
// never written: the flat instance Begin returns copies a page before it
// writes into it for the first time.

// maxCOWDepth bounds the delta-layer chain. Reads walk the chain on a
// miss, so depth is a direct multiplier on worst-case Deref cost; 8 keeps
// the walk trivial while amortising a flatten over 8 loads.
const maxCOWDepth = 8

// Epoch reports the instance's version number: 0 for a fresh instance,
// incremented by every Begin. Epochs order the published versions of one
// database; two instances from different Begin chains are not comparable.
func (in *Instance) Epoch() uint64 { return in.epoch }

// Begin starts a new copy-on-write layer over the instance: an Instance
// that reads through to the receiver but stages every mutation (NewObject,
// SetValue, SetRoot, BindMethod) privately. The receiver is not touched —
// it can keep serving readers, and several writers may Begin on it at
// once — and the staged layer becomes durable only when the caller
// publishes it (e.g. swaps it into an atomic pointer). Discarding the
// returned instance discards the staged mutations wholesale, which is
// what makes failed loads atomic.
//
// The receiver must not be mutated directly after Begin: the staged layer
// shares its maps and pages by reference.
func (in *Instance) Begin() *Instance {
	if in.depth >= maxCOWDepth {
		f := in.flatten()
		f.epoch = in.epoch + 1
		return f
	}
	return &Instance{
		schema: in.schema,
		nextID: in.nextID,
		base:   in,
		depth:  in.depth + 1,
		epoch:  in.epoch + 1,
		class:  make(map[object.OID]string),
		values: make(map[object.OID]object.Value),
		roots:  make(map[string]object.Value),
		method: make(map[string]Method),
	}
}

// flatten merges the whole layer chain into a fresh flat instance with
// the same contents, schema and epoch. Newer layers win where a key is
// shadowed (ν after fixups, rebound roots). It only reads the chain.
func (in *Instance) flatten() *Instance {
	// Walk the chain bottom-up so top-layer writes land last.
	var layers []*Instance
	for l := in; l != nil; l = l.base {
		layers = append(layers, l)
	}
	bottom := layers[len(layers)-1]
	n, pages := len(bottom.pages), int(uint64(in.nextID)>>pageBits)+1
	out := &Instance{
		schema: in.schema,
		nextID: in.nextID,
		epoch:  in.epoch,
		pages:  make([]*page, n, pages),
		owned:  make([]bool, n, pages),
		count:  bottom.count,
		roots:  make(map[string]object.Value),
		method: make(map[string]Method),
	}
	copy(out.pages, bottom.pages)
	for i := len(layers) - 1; i >= 0; i-- {
		l := layers[i]
		for o, c := range l.class {
			out.create(o, c, l.values[o])
		}
		for o, v := range l.values {
			if _, created := l.class[o]; !created {
				out.put(o, v)
			}
		}
		for g, v := range l.roots {
			out.roots[g] = v
		}
		for k, m := range l.method {
			out.method[k] = m
		}
	}
	return out
}

// Depth reports the length of the copy-on-write chain under the instance
// (0 for a flat instance); exposed for tests and diagnostics.
func (in *Instance) Depth() int { return in.depth }

// SetEpoch re-anchors the instance's version number. Recovery uses it: an
// instance deserialized from a checkpoint starts at epoch 0, but the
// epochs it publishes must continue the pre-crash sequence so that the
// recovered database reports exactly the epoch that was durable.
func (in *Instance) SetEpoch(e uint64) { in.epoch = e }

// Discard releases a staged layer that will never be published: it drops
// the layer's maps and its reference to the base chain so an abandoned
// load's staging becomes garbage immediately rather than living until the
// *Instance itself is collected. The instance is unusable afterwards.
func (in *Instance) Discard() {
	in.base = nil
	in.pages = nil
	in.owned = nil
	in.class = nil
	in.values = nil
	in.roots = nil
	in.method = nil
}

// AdoptSchema swaps the instance's schema pointer. It is meant for staged
// layers only (between Begin and publish): declaring a new persistence
// root at run time must not mutate the schema that older pinned versions
// still read, so the writer clones the schema, adds the root to the
// clone, and adopts it on the staged layer before publishing.
func (in *Instance) AdoptSchema(s *Schema) { in.schema = s }

// Snapshot pins one published instance version: the version readers hold
// for the duration of a query so every Deref, extent scan and root lookup
// answers against a single consistent (π, ν, μ, γ).
type Snapshot struct {
	Inst  *Instance
	Epoch uint64
}

// Snapshot captures the instance as a pinnable version.
func (in *Instance) Snapshot() Snapshot { return Snapshot{Inst: in, Epoch: in.epoch} }

// eachObject visits every assigned oid in ascending order with π_d and ν
// as this version sees them. The flat layer's pages are scanned in order;
// the delta layers, whose objects are all newer, follow bottom-up.
func (in *Instance) eachObject(f func(object.OID, string, object.Value)) {
	var deltas []*Instance // top-down
	bottom := in
	for ; !bottom.flat(); bottom = bottom.base {
		deltas = append(deltas, bottom)
	}
	// shadowed holds the page objects a delta layer assigned a new ν.
	var shadowed map[object.OID]bool
	for _, l := range deltas {
		for o := range l.values {
			if _, created := l.class[o]; !created && o < bottom.nextID {
				if shadowed == nil {
					shadowed = make(map[object.OID]bool)
				}
				shadowed[o] = true
			}
		}
	}
	for k, p := range bottom.pages {
		if p == nil {
			continue
		}
		for i, v := range &p.values {
			if v == nil {
				continue
			}
			o := object.OID(k<<pageBits | i)
			if shadowed[o] {
				v, _ = in.Deref(o)
			}
			f(o, p.class[i], v)
		}
	}
	for i := len(deltas) - 1; i >= 0; i-- {
		l := deltas[i]
		created := make([]object.OID, 0, len(l.class))
		for o := range l.class {
			created = append(created, o)
		}
		slices.Sort(created)
		for _, o := range created {
			v, _ := in.Deref(o)
			f(o, l.class[o], v)
		}
	}
}

// eachRoot visits every assigned root exactly once, newer layers
// shadowing older ones.
func (in *Instance) eachRoot(f func(string, object.Value)) {
	if in.base == nil {
		for g, v := range in.roots {
			f(g, v)
		}
		return
	}
	seen := make(map[string]bool)
	for l := in; l != nil; l = l.base {
		for g, v := range l.roots {
			if !seen[g] {
				seen[g] = true
				f(g, v)
			}
		}
	}
}
