package text

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"sgmldb/internal/faultpoint"
)

// Fault-injection sites on the index-rebuild path the facade runs after
// staging a load. Add returns an injected failure as its error. Clone
// returns no error, so an injected failure there escalates to a panic —
// deliberately: that site exists to prove that a panic between
// "documents staged" and "snapshot published" is contained at the facade
// boundary and rolled back, not that an error is politely forwarded.
var (
	fpClone = faultpoint.New("text/index-clone")
	fpAdd   = faultpoint.New("text/index-add")
)

// DocID identifies an indexed document (the caller typically uses object
// identifiers).
type DocID uint64

// posting is the occurrence list of one word in one document.
type posting struct {
	doc       DocID
	positions []int // word positions, ascending
}

// Index is a positional inverted index: the full-text indexing mechanism
// whose integration Section 4.1 and Section 6 call for. It answers
// contains expressions (boolean combinations of patterns) and near
// predicates without scanning document text.
//
// An Index is a short list of segments, the segmented inverted file of
// the XML IR literature: each segment maps words to postings for its own
// documents, and every read (Lookup, Eval, Has, Docs, Encode, …) reads
// across all of them. An Index follows the same discipline as a store
// instance: it is built by one writer, then published and never written
// again. A published index needs no locks — any number of goroutines may
// read it and Clone it at once. A writer derives the next version by
// cloning the published index, Adding the new documents to the clone and
// publishing the clone, so queries pinned to the old index never observe
// a half-applied batch. Add and Clone must not run concurrently on the
// same index.
//
// A new version shares every segment of the old one by pointer, and Add
// writes only a private tail segment, so a commit's cost does not depend
// on the corpus size. Clone keeps the segment list short by merging, on a
// size-tiered schedule: each posting is copied O(log N) times over its
// life, not once per version.
type Index struct {
	// segs holds the segments, oldest (and largest) first. Only tail,
	// when set, is ever written, and it is the last of segs.
	segs []*segment
	tail *segment
	// sorted caches the vocabulary in order for pattern scans. Readers
	// build it lazily (redundantly, if they race: each builds the same
	// slice); Add resets it when a word enters the tail segment.
	sorted atomic.Pointer[[]string]
}

// segment is the inverted file of a run of documents. The documents of
// the segments of one index are disjoint.
type segment struct {
	vocab map[string][]posting // word -> postings, one per document, in insertion order
	docs  map[DocID]bool
	order []DocID // insertion order
}

func newSegment() *segment {
	return &segment{vocab: make(map[string][]posting), docs: make(map[DocID]bool)}
}

// NewIndex returns an empty index.
func NewIndex() *Index { return &Index{} }

// Clone returns an independently mutable copy of the index, and only
// reads its receiver, so a published index may be cloned by several
// writers at once. The copy shares the receiver's segments and writes a
// tail segment of its own, created by its first Add. The receiver's tail
// is the one segment the receiver could still write, so the copy takes
// it over as a copy — merged with the newest shared segments when the
// tiering calls for it. That is what makes per-load index versions
// affordable: the writer clones, Adds the new documents, and publishes
// the clone, while readers pinned to the original keep a stable view.
//
// The tiering keeps segment sizes, counted in documents, strictly
// decreasing from the oldest: the receiver's tail is merged with the
// newest segments below it as long as the merged run has grown to the
// size of the next one down. A run of N single-document clones therefore
// holds at most log₂N+1 segments, like the bits of a binary counter.
func (ix *Index) Clone() *Index {
	if err := fpClone.Hit(); err != nil {
		//lint:allow panic injected faults escalate to panics here (no error return); contained at the facade boundary
		panic(err)
	}
	n := len(ix.segs)
	keep := n // ix.segs[:keep] are shared as they are
	if ix.tail != nil {
		keep--
		size := len(ix.tail.order)
		for keep > 0 && size >= len(ix.segs[keep-1].order) {
			keep--
			size += len(ix.segs[keep].order)
		}
	}
	c := &Index{segs: make([]*segment, keep, keep+2)}
	copy(c.segs, ix.segs[:keep])
	if keep < n {
		c.segs = append(c.segs, merge(ix.segs[keep:]))
	}
	return c
}

// merge builds one segment holding the documents of segs, in order. Its
// posting lists are sized exactly; the position lists are shared, since
// no posting's positions change once its document is added.
func merge(segs []*segment) *segment {
	docs := 0
	for _, s := range segs {
		docs += len(s.order)
	}
	out := &segment{
		vocab: make(map[string][]posting, len(segs[0].vocab)),
		docs:  make(map[DocID]bool, docs),
		order: make([]DocID, 0, docs),
	}
	for i, s := range segs {
		out.order = append(out.order, s.order...)
		for d := range s.docs {
			out.docs[d] = true
		}
		for w, ps := range s.vocab {
			if _, done := out.vocab[w]; done {
				continue
			}
			// First seen in segment i: collect the word from there on.
			k := len(ps)
			for _, later := range segs[i+1:] {
				k += len(later.vocab[w])
			}
			merged := make([]posting, 0, k)
			for _, t := range segs[i:] {
				merged = append(merged, t.vocab[w]...)
			}
			out.vocab[w] = merged
		}
	}
	return out
}

// Add indexes the text of one document. A document is indexed once: Add
// of a DocID the index already holds returns an error and leaves the
// index unchanged.
func (ix *Index) Add(doc DocID, text string) error {
	if err := fpAdd.Hit(); err != nil {
		return err
	}
	if ix.Has(doc) {
		return fmt.Errorf("text: document %d is already indexed", doc)
	}
	if ix.tail == nil {
		ix.tail = newSegment()
		ix.segs = append(ix.segs, ix.tail)
	}
	t := ix.tail
	t.docs[doc] = true
	t.order = append(t.order, doc)
	for _, tok := range Tokenize(text) {
		ps, seen := t.vocab[tok.Word]
		if !seen {
			ix.sorted.Store(nil)
		}
		// Tokens arrive in document order, so a word's positions are
		// appended ascending. The document is new, so a posting for it
		// can only have been appended by this call, into memory no other
		// version reads.
		if n := len(ps); n > 0 && ps[n-1].doc == doc {
			ps[n-1].positions = append(ps[n-1].positions, tok.Pos)
		} else {
			t.vocab[tok.Word] = append(ps, posting{doc: doc, positions: []int{tok.Pos}})
		}
	}
	return nil
}

// Has reports whether the document is indexed.
func (ix *Index) Has(doc DocID) bool {
	for _, s := range ix.segs {
		if s.docs[doc] {
			return true
		}
	}
	return false
}

// Size reports the number of indexed documents.
func (ix *Index) Size() int {
	n := 0
	for _, s := range ix.segs {
		n += len(s.order)
	}
	return n
}

// VocabularySize reports the number of distinct words.
func (ix *Index) VocabularySize() int { return len(ix.sortedWords()) }

// Docs returns all indexed documents in insertion order.
func (ix *Index) Docs() []DocID {
	out := make([]DocID, 0, ix.Size())
	for _, s := range ix.segs {
		out = append(out, s.order...)
	}
	return out
}

// Lookup returns the documents containing the word, ascending.
func (ix *Index) Lookup(word string) []DocID {
	n := 0
	for _, s := range ix.segs {
		n += len(s.vocab[word])
	}
	out := make([]DocID, 0, n)
	for _, s := range ix.segs {
		for _, p := range s.vocab[word] {
			out = append(out, p.doc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// matchingWords scans the vocabulary with a pattern, in word order. Bare
// literals are looked up directly and skip the scan.
func (ix *Index) matchingWords(p *Pattern) []string {
	if lit, ok := p.Literal(); ok {
		for _, s := range ix.segs {
			if _, present := s.vocab[lit]; present {
				return []string{lit}
			}
		}
		return nil
	}
	var out []string
	for _, w := range ix.sortedWords() {
		if p.Match(w) {
			out = append(out, w)
		}
	}
	return out
}

// sortedWords returns the sorted vocabulary, building and caching it on
// first use after a change.
func (ix *Index) sortedWords() []string {
	if ws := ix.sorted.Load(); ws != nil {
		return *ws
	}
	ws := ix.vocabulary()
	ix.sorted.Store(&ws)
	return ws
}

// vocabulary returns the index's words in order, uncached.
func (ix *Index) vocabulary() []string {
	n := 0
	for _, s := range ix.segs {
		n += len(s.vocab)
	}
	ws := make([]string, 0, n)
	for _, s := range ix.segs {
		for w := range s.vocab {
			ws = append(ws, w)
		}
	}
	sort.Strings(ws)
	return slices.Compact(ws)
}

// Eval answers a contains expression from the index: the set of documents
// whose text satisfies expr, ascending by DocID.
//
// Pattern atoms are evaluated at word granularity (a pattern matches a
// document if it matches one of the document's words), which is the IRS
// convention the index supports; multi-word literal atoms are evaluated as
// a phrase using positions. Negation complements against the set of all
// indexed documents.
func (ix *Index) Eval(expr Expr) []DocID {
	set := ix.eval(expr)
	out := make([]DocID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (ix *Index) eval(expr Expr) map[DocID]bool {
	switch e := expr.(type) {
	case MatchExpr:
		if lit, ok := e.Pattern.Literal(); ok {
			words := Words(lit)
			if len(words) > 1 {
				return ix.phrase(words)
			}
			if len(words) == 1 {
				return ix.docsWith(words[0])
			}
			return map[DocID]bool{}
		}
		out := map[DocID]bool{}
		for _, w := range ix.matchingWords(e.Pattern) {
			for d := range ix.docsWith(w) {
				out[d] = true
			}
		}
		return out
	case AndExpr:
		l := ix.eval(e.L)
		r := ix.eval(e.R)
		out := map[DocID]bool{}
		for d := range l {
			if r[d] {
				out[d] = true
			}
		}
		return out
	case OrExpr:
		out := ix.eval(e.L)
		for d := range ix.eval(e.R) {
			out[d] = true
		}
		return out
	case NotExpr:
		inner := ix.eval(e.E)
		out := map[DocID]bool{}
		for _, s := range ix.segs {
			for _, d := range s.order {
				if !inner[d] {
					out[d] = true
				}
			}
		}
		return out
	case NearExpr:
		return ix.near(e)
	default:
		return map[DocID]bool{}
	}
}

// docsWith returns the set of documents containing the word.
func (ix *Index) docsWith(word string) map[DocID]bool {
	out := map[DocID]bool{}
	for _, s := range ix.segs {
		for _, p := range s.vocab[word] {
			out[p.doc] = true
		}
	}
	return out
}

// occurrences maps each document containing the word to its ascending
// positions. The position lists are the index's own: callers only read
// them.
func (ix *Index) occurrences(word string) map[DocID][]int {
	out := make(map[DocID][]int)
	for _, s := range ix.segs {
		for _, p := range s.vocab[word] {
			out[p.doc] = p.positions
		}
	}
	return out
}

// phrase finds documents containing the words consecutively.
func (ix *Index) phrase(words []string) map[DocID]bool {
	occ := ix.occurrencesOf(words)
	out := make(map[DocID]bool, len(occ))
	for d := range occ {
		out[d] = true
	}
	return out
}

// near answers a word-distance predicate from positions. Either operand
// may be a multi-word phrase: its occurrences are the start positions at
// which the words appear consecutively, and the distance is the word gap
// between the end of one occurrence and the start of the other.
func (ix *Index) near(e NearExpr) map[DocID]bool {
	out := map[DocID]bool{}
	aw, bw := Words(e.A), Words(e.B)
	if len(aw) == 0 || len(bw) == 0 {
		return out
	}
	a := ix.occurrencesOf(aw)
	b := ix.occurrencesOf(bw)
	for doc, aPos := range a {
		bPos, ok := b[doc]
		if !ok {
			continue
		}
		if nearSpans(aPos, bPos, len(aw), len(bw), e.Dist) {
			out[doc] = true
		}
	}
	return out
}

// occurrencesOf maps each document to the ascending start positions at
// which the words occur consecutively. A single word reduces to its
// position list; a phrase intersects word k's positions shifted by k
// into fresh lists.
func (ix *Index) occurrencesOf(words []string) map[DocID][]int {
	base := ix.occurrences(words[0])
	for k := 1; k < len(words); k++ {
		next := ix.occurrences(words[k])
		for doc, starts := range base {
			np := next[doc]
			var keep []int
			for _, p := range starts {
				i := sort.SearchInts(np, p+k)
				if i < len(np) && np[i] == p+k {
					keep = append(keep, p)
				}
			}
			if len(keep) == 0 {
				delete(base, doc)
			} else {
				base[doc] = keep
			}
		}
	}
	return base
}

// nearSpans reports whether some a-occurrence (la words long) and some
// b-occurrence (lb words long) are separated by at most dist intervening
// words. Overlapping occurrences do not match, which for single words
// coincides with NearExpr.Eval's |pa−pb|−1 ≤ dist, pa ≠ pb.
func nearSpans(as, bs []int, la, lb, dist int) bool {
	for _, sa := range as {
		for _, sb := range bs {
			var gap int
			if sa < sb {
				gap = sb - (sa + la)
			} else {
				gap = sa - (sb + lb)
			}
			if gap >= 0 && gap <= dist {
				return true
			}
		}
	}
	return false
}
