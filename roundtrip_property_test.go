package sgmldb

// Whole-pipeline property tests: for several generator seeds, every
// synthetic document must survive parse → load → check → export →
// re-parse → re-load with an isomorphic result, and snapshots must
// round-trip the whole instance.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sgmldb/internal/calculus"
	"sgmldb/internal/corpus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/object"
	"sgmldb/internal/sgml"
	"sgmldb/internal/wal"
)

func TestPropertyGeneratedCorpusRoundTrips(t *testing.T) {
	dtd, err := sgml.ParseDTD(corpus.ArticleDTD)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		g := corpus.NewGenerator(corpus.Params{Seed: seed, Docs: 2, Sections: 4, Words: 12})
		m, err := dtdmap.MapDTD(dtd)
		if err != nil {
			t.Fatal(err)
		}
		loader := dtdmap.NewLoader(m)
		for i := 0; i < 2; i++ {
			src := g.Article(i)
			doc, err := sgml.ParseDocument(dtd, src)
			if err != nil {
				t.Fatalf("seed %d doc %d: parse: %v", seed, i, err)
			}
			oid, err := loader.Load(doc)
			if err != nil {
				t.Fatalf("seed %d doc %d: load: %v", seed, i, err)
			}
			out, err := dtdmap.Export(m, loader.Instance, oid)
			if err != nil {
				t.Fatalf("seed %d doc %d: export: %v", seed, i, err)
			}
			doc2, err := sgml.ParseDocument(dtd, out)
			if err != nil {
				t.Fatalf("seed %d doc %d: re-parse: %v", seed, i, err)
			}
			m2, _ := dtdmap.MapDTD(dtd)
			l2 := dtdmap.NewLoader(m2)
			oid2, err := l2.Load(doc2)
			if err != nil {
				t.Fatalf("seed %d doc %d: re-load: %v", seed, i, err)
			}
			t1 := dtdmap.TextOf(loader.Instance, oid)
			t2 := dtdmap.TextOf(l2.Instance, oid2)
			if t1 != t2 {
				t.Fatalf("seed %d doc %d: text changed", seed, i)
			}
		}
		if errs := loader.Instance.Check(); len(errs) != 0 {
			t.Fatalf("seed %d: instance invalid: %v", seed, errs)
		}
	}
}

func TestPropertySnapshotPreservesWholeInstance(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		db, err := corpus.BuildArticles(corpus.Params{Seed: seed, Docs: 3, Sections: 3})
		if err != nil {
			t.Fatal(err)
		}
		inst := db.Loader.Instance
		docs := make([]uint64, 0, 3)
		for _, o := range db.Loader.Documents() {
			docs = append(docs, uint64(o))
		}
		var img bytes.Buffer
		ck := &wal.Checkpoint{DTD: corpus.ArticleDTD, Docs: docs, Inst: inst, Index: db.Index}
		if err := wal.EncodeCheckpoint(&img, ck); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("s%d.snap", seed))
		if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := OpenSnapshot(path)
		if err != nil {
			t.Fatal(err)
		}
		inst2 := db2.Instance()
		if inst2.NumObjects() != inst.NumObjects() {
			t.Fatalf("seed %d: object count %d vs %d", seed, inst2.NumObjects(), inst.NumObjects())
		}
		for _, o := range inst.Objects() {
			v1, _ := inst.Deref(o)
			v2, ok := inst2.Deref(o)
			if !ok || !object.Equal(v1, v2) {
				t.Fatalf("seed %d: object %s changed", seed, o)
			}
			c1, _ := inst.ClassOf(o)
			c2, _ := inst2.ClassOf(o)
			if c1 != c2 {
				t.Fatalf("seed %d: class of %s changed", seed, o)
			}
		}
		if errs := inst2.Check(); len(errs) != 0 {
			t.Fatalf("seed %d: reloaded instance invalid: %v", seed, errs)
		}
		// Queries over the reloaded instance agree with the original.
		const q = `select t from a in Articles, a PATH_p.title(t)`
		want, err := db.Env.Eval(mustLower(t, db2, q))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db2.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !object.Equal(want.ToSet(), got) {
			t.Fatalf("seed %d: snapshot query drift", seed)
		}
	}
}

func mustLower(t *testing.T, db *Database, q string) *calculus.Query {
	t.Helper()
	lowered, err := db.Engine.Lower(q)
	if err != nil {
		t.Fatal(err)
	}
	return lowered
}
