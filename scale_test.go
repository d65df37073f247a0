package sgmldb

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sgmldb/internal/corpus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/object"
	"sgmldb/internal/sgml"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
	"sgmldb/internal/wal"
)

// goldenDB commits small articles one at a time (more commits than the
// copy-on-write chain is deep, so a flattened version is encoded), then
// a batch of two and a root naming.
func goldenDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenDTD(corpus.ArticleDTD)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	gen := corpus.NewGenerator(corpus.Params{Seed: 3, Sections: 2, Subsections: 1, Bodies: 1, Words: 4, Authors: 1, Vocabulary: 40})
	for i := 0; i < 11; i++ {
		if _, err := db.LoadDocuments([]string{gen.Article(i)}); err != nil {
			t.Fatal(err)
		}
	}
	oids, err := db.LoadDocuments([]string{gen.Article(11), gen.Article(12)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("featured", oids[1]); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCheckpointGolden pins the checkpoint image, instance and text
// index sections alike, byte for byte: checkpoints on disk and shipped
// to followers carry this format, so how the published version is laid
// out in memory must not move it.
func TestCheckpointGolden(t *testing.T) {
	db := goldenDB(t)
	db.loadMu.Lock()
	st := db.state()
	ck := db.captureCheckpoint(st.Snap.Inst, st.Index)
	db.loadMu.Unlock()
	var got bytes.Buffer
	if err := wal.EncodeCheckpoint(&got, ck); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/checkpoint.golden"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("checkpoint image differs from %s (%d bytes, want %d)", path, got.Len(), len(want))
	}
}

// commitBytes reports the bytes allocated by n single-article commits,
// the articles drawn from gen.
func commitBytes(t testing.TB, db *Database, gen *corpus.Generator, next *int, n int) uint64 {
	t.Helper()
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = gen.Article(*next)
		*next++
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, src := range srcs {
		if _, err := db.LoadDocuments([]string{src}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// bulkLoad commits articles from gen in batches of 500 until db holds
// docs documents.
func bulkLoad(t testing.TB, db *Database, gen *corpus.Generator, next *int, docs int) {
	t.Helper()
	for *next < docs {
		n := min(500, docs-*next)
		srcs := make([]string, n)
		for i := range srcs {
			srcs[i] = gen.Article(*next + i)
		}
		if _, err := db.LoadDocuments(srcs); err != nil {
			t.Fatal(err)
		}
		*next += n
	}
}

// TestCommitBytesIndependentOfCorpus is the scale gate: the bytes one
// commit allocates must not grow with the corpus. It counts bytes, not
// allocations — copying a posting list or a store map is one allocation
// whatever its length, so an allocation count cannot see the copies this
// gate exists to keep out. Each window starts after nine warm-up
// commits, one more than the copy-on-write chain is deep: they absorb
// the store flatten and the index merge that fold in the bulk batches,
// which cost what a batch loaded, not what the corpus holds.
func TestCommitBytesIndependentOfCorpus(t *testing.T) {
	db, err := OpenDTD(corpus.ArticleDTD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gen := corpus.NewGenerator(corpus.Params{Seed: 15})
	next := 0
	const window = 16
	measure := func(docs int) uint64 {
		bulkLoad(t, db, gen, &next, docs)
		commitBytes(t, db, gen, &next, 9)
		return commitBytes(t, db, gen, &next, window)
	}
	small := measure(500)
	large := measure(4000)
	ratio := float64(large) / float64(small)
	t.Logf("bytes per commit: %d at 500 docs, %d at 4000 docs (ratio %.2f)", small/window, large/window, ratio)
	if ratio > 2 {
		t.Errorf("a commit at 4000 documents allocates %.2f× what it does at 500, want ≤ 2", ratio)
	}
}

// TestConcurrentStagingFromOnePublishedVersion stages two commits from
// one published version at once, the way a traced benchmark replays a
// commit beside the database's own writer, on each of 18 consecutive
// versions: every chain depth twice, so one round's Begin flattens at
// depth 8 and, the index's segment tiering alternating with the parity
// of the commit count, one of those rounds' Clones merges segments.
// Under -race it pins that staging only reads the published version:
// its Deref of every oid, its extents and its index encoding stay as
// they were, and each staged version sees its own document only.
func TestConcurrentStagingFromOnePublishedVersion(t *testing.T) {
	db, err := OpenDTD(corpus.ArticleDTD)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	gen := corpus.NewGenerator(corpus.Params{Seed: 16, Sections: 2, Bodies: 1, Words: 6})
	next := 0
	bulkLoad(t, db, gen, &next, 40)
	sawFlatten := false
	for round := 0; round < 18; round++ {
		st := db.state()
		inst, ix := st.Snap.Inst, st.Index
		if inst.Depth() == 8 {
			sawFlatten = true
		}
		objs := inst.Objects()
		vals := make([]object.Value, len(objs))
		for i, o := range objs {
			vals[i], _ = inst.Deref(o)
		}
		sections := inst.Extent("Section")
		wantIndex := encodeIndex(t, ix)

		srcs := [2]string{}
		for w := range srcs {
			srcs[w] = strings.Replace(gen.Article(next), "<abstract>", fmt.Sprintf("<abstract>stagedby%d ", w), 1)
			next++
		}
		var staged [2]*store.Instance
		var clones [2]*text.Index
		var oids [2]object.OID
		var wg sync.WaitGroup
		errs := make(chan error, 3)
		for w := range srcs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				doc, err := sgml.ParseDocument(db.Mapping.DTD, srcs[w])
				if err != nil {
					errs <- err
					return
				}
				ld := dtdmap.NewLoader(db.Mapping)
				ld.Adopt(inst, rootDocs(inst, db.Mapping.RootName))
				got, err := ld.LoadAll([]*sgml.Document{doc})
				if err != nil {
					errs <- err
					return
				}
				c := ix.Clone()
				if err := c.Add(text.DocID(got[0]), dtdmap.TextOf(ld.Instance, got[0])); err != nil {
					errs <- err
					return
				}
				staged[w], clones[w], oids[w] = ld.Instance, c, got[0]
			}(w)
		}
		// A reader encodes the published version while the writers stage.
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b bytes.Buffer
			if err := store.Save(&b, inst); err != nil {
				errs <- err
			}
		}()
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		for i, o := range inst.Objects() {
			if i >= len(objs) || o != objs[i] {
				t.Fatalf("round %d: published objects changed at %d", round, i)
			}
			if v, _ := inst.Deref(o); !object.Equal(v, vals[i]) {
				t.Fatalf("round %d: published ν(%s) changed", round, o)
			}
		}
		if len(inst.Objects()) != len(objs) {
			t.Fatalf("round %d: published object count changed", round)
		}
		if got := inst.Extent("Section"); !reflect.DeepEqual(got, sections) {
			t.Fatalf("round %d: published Section extent changed", round)
		}
		if got := encodeIndex(t, ix); !bytes.Equal(got, wantIndex) {
			t.Fatalf("round %d: published index encoding changed", round)
		}
		for w := range srcs {
			own, other := fmt.Sprintf("stagedby%d", w), fmt.Sprintf("stagedby%d", 1-w)
			if got := clones[w].Lookup(own); !reflect.DeepEqual(got, []text.DocID{text.DocID(oids[w])}) {
				t.Fatalf("round %d: writer %d's index finds its document at %v, want [%d]", round, w, got, oids[w])
			}
			if got := clones[w].Lookup(other); len(got) != 0 {
				t.Fatalf("round %d: writer %d's index sees the other writer's document %v", round, w, got)
			}
			body := dtdmap.TextOf(staged[w], oids[w])
			if !strings.Contains(body, own) || strings.Contains(body, other) {
				t.Fatalf("round %d: writer %d's staged document reads %q", round, w, body)
			}
			if got := staged[w].NumObjects(); got <= len(objs) {
				t.Fatalf("round %d: writer %d staged %d objects over %d", round, w, got, len(objs))
			}
		}
		// Advance the database by one ordinary commit.
		if _, err := db.LoadDocuments([]string{gen.Article(next)}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if !sawFlatten {
		t.Error("no round staged over a depth-8 version")
	}
}
