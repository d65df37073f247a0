package text

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"sync"
	"testing"
)

// TestPublishedIndexConcurrentReadersAndClones exercises the facade's
// real concurrency on one published index: readers of every kind run
// while two writers each Clone that same index and Add to their clone.
// Run under -race this pins that a published index is only read — by
// readers, and by Clone.
func TestPublishedIndexConcurrentReadersAndClones(t *testing.T) {
	// Eleven documents leave the common words' posting slices with five
	// spare slots, as a published clone has after its Adds: two clones
	// that appended into them would overwrite each other's postings.
	const published = 11
	ix := NewIndex()
	for d := 0; d < published; d++ {
		if err := ix.Add(DocID(d), fmt.Sprintf("alpha beta gamma doc%d delta", d)); err != nil {
			t.Fatal(err)
		}
	}
	pattern, err := PatternExpr("(a|d)e.*")
	if err != nil {
		t.Fatal(err)
	}
	exprs := []Expr{
		MustWord("alpha"),
		pattern, // non-literal: builds the sorted vocabulary concurrently
		MustWord("beta gamma"),
		NearExpr{A: "alpha", B: "delta", Dist: 3},
		Not(MustWord("doc3")),
	}
	want := make([][]DocID, len(exprs))
	for i, e := range exprs {
		want[i] = ix.Eval(e)
	}
	var enc bytes.Buffer
	if err := ix.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	wantEnc, wantDocs, wantVocab := enc.String(), ix.Docs(), ix.VocabularySize()
	// The sorted-vocabulary cache starts empty so readers race to build it.
	ix.sorted.Store(nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (i + r) % len(exprs)
				if got := ix.Eval(exprs[k]); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("Eval(%v) = %v mid-run, want %v", exprs[k], got, want[k])
					return
				}
				if got := ix.Lookup("alpha"); len(got) != published {
					t.Errorf("Lookup(alpha) = %v mid-run", got)
					return
				}
				if got := ix.Docs(); !reflect.DeepEqual(got, wantDocs) {
					t.Errorf("Docs = %v mid-run, want %v", got, wantDocs)
					return
				}
				if got := ix.VocabularySize(); got != wantVocab {
					t.Errorf("VocabularySize = %d mid-run, want %d", got, wantVocab)
					return
				}
				var b bytes.Buffer
				if err := ix.Encode(&b); err != nil || b.String() != wantEnc {
					t.Errorf("Encode changed mid-run (err %v)", err)
					return
				}
			}
		}(r)
	}
	clones := make([]*Index, 2)
	// The writers' texts are built up front: fmt's buffer pool would
	// order the two writers for the race detector and hide a shared write.
	texts := []string{"alpha epsilon writer0 delta", "alpha epsilon writer1 delta"}
	var writers sync.WaitGroup
	for w := range clones {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 20; i++ {
				c := ix.Clone()
				for d := 0; d < 5; d++ {
					id := DocID(100*(w+1) + d)
					if err := c.Add(id, texts[w]); err != nil {
						t.Error(err)
						return
					}
				}
				clones[w] = c
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	for w, c := range clones {
		var own []DocID
		for d := 0; d < 5; d++ {
			own = append(own, DocID(100*(w+1)+d))
		}
		if got := c.Lookup(fmt.Sprintf("writer%d", w)); !reflect.DeepEqual(got, own) {
			t.Errorf("clone %d: own docs = %v, want %v", w, got, own)
		}
		if got := c.Lookup(fmt.Sprintf("writer%d", 1-w)); len(got) != 0 {
			t.Errorf("clone %d sees the other clone's documents: %v", w, got)
		}
		if got := c.Lookup("alpha"); !reflect.DeepEqual(got, append(ix.Lookup("alpha"), own...)) {
			t.Errorf("clone %d: alpha docs = %v, want the published ones + %v", w, got, own)
		}
		if got := c.Size(); got != published+5 {
			t.Errorf("clone %d Size = %d, want %d", w, got, published+5)
		}
	}
	for i, e := range exprs {
		if got := ix.Eval(e); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("published Eval(%v) = %v after clones, want %v", e, got, want[i])
		}
	}
}

// TestShardedCloneVersioning re-checks the copy-on-write contract across
// a larger vocabulary: Adds into a clone never disturb the original, and
// vice versa.
func TestShardedCloneVersioning(t *testing.T) {
	ix := NewIndex()
	for d := 0; d < 20; d++ {
		ix.Add(DocID(d), fmt.Sprintf("shared word%d tail", d))
	}
	before := ix.Eval(MustWord("shared"))
	c := ix.Clone()
	c.Add(DocID(99), "shared fresh")
	if err := c.Add(DocID(3), "rewritten only"); err == nil {
		t.Error("re-Add of doc 3 into the clone succeeded, want error")
	}
	if got := ix.Eval(MustWord("shared")); !reflect.DeepEqual(got, before) {
		t.Errorf("original 'shared' docs changed after clone Adds: %v != %v", got, before)
	}
	if got := ix.Lookup("word3"); len(got) != 1 || got[0] != 3 {
		t.Errorf("original lost doc 3's postings: %v", got)
	}
	if got := c.Lookup("word3"); len(got) != 1 || got[0] != 3 {
		t.Errorf("clone lost doc 3's postings on a rejected re-Add: %v", got)
	}
	if got := c.Lookup("rewritten"); len(got) != 0 {
		t.Errorf("rejected re-Add indexed words: %v", got)
	}
	if got := c.Lookup("fresh"); len(got) != 1 || got[0] != 99 {
		t.Errorf("clone missing its own Add: %v", got)
	}
	// Writing back into the original after Clone must not leak into the
	// clone either.
	ix.Add(DocID(77), "shared original only")
	if got := c.Lookup("original"); len(got) != 0 {
		t.Errorf("original's post-clone Add leaked into clone: %v", got)
	}
	if got := c.Eval(MustWord("shared")); len(got) != 21 {
		t.Errorf("clone 'shared' docs = %v, want the 20 cloned + 99", got)
	}
}

// TestCloneTiersSegments publishes one document per version, as single
// loads do, and checks that the segment list stays logarithmic, the
// published versions stay frozen, and the segmented index answers and
// encodes exactly like one built in a single version.
func TestCloneTiersSegments(t *testing.T) {
	const n = 200
	flat := NewIndex()
	ix := NewIndex()
	var versions []*Index
	for d := 0; d < n; d++ {
		body := fmt.Sprintf("common w%d w%d tail%d", d%7, d%13, d)
		if err := flat.Add(DocID(d), body); err != nil {
			t.Fatal(err)
		}
		next := ix.Clone()
		if err := next.Add(DocID(d), body); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, ix)
		ix = next
		if limit := bits.Len(uint(d+1)) + 1; len(ix.segs) > limit {
			t.Fatalf("after %d versions: %d segments, want at most %d", d+1, len(ix.segs), limit)
		}
	}
	if got, want := encode(t, ix), encode(t, flat); got != want {
		t.Errorf("segmented encoding differs from a single version's:\n%s\nwant\n%s", got, want)
	}
	pattern, err := PatternExpr("w1.*")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Expr{MustWord("common"), MustWord("w3 w4"), pattern, NearExpr{A: "common", B: "tail5", Dist: 2}, Not(MustWord("w5"))} {
		if got, want := ix.Eval(e), flat.Eval(e); !reflect.DeepEqual(got, want) {
			t.Errorf("Eval(%v) = %v, want %v", e, got, want)
		}
	}
	if ix.Size() != n || ix.VocabularySize() != flat.VocabularySize() || !reflect.DeepEqual(ix.Docs(), flat.Docs()) {
		t.Errorf("Size %d, vocabulary %d, want %d, %d", ix.Size(), ix.VocabularySize(), n, flat.VocabularySize())
	}
	for d, v := range versions {
		if v.Size() != d || len(v.Lookup("common")) != d {
			t.Fatalf("version %d changed: %d documents", d, v.Size())
		}
	}
}

func encode(t *testing.T, ix *Index) string {
	t.Helper()
	var b bytes.Buffer
	if err := ix.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
