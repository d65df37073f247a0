package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// The query mix. Shares follow the workload definition (single-document
// Q3/Q5 ~30%, collection contains ~25%, Q1 ~15%, Q2 ~8%, status ~20%,
// whole-corpus path ~2%), shifted a few points so that the median does
// not sit on the boundary between the fast classes (single-document and
// status, under 3 ms) and the scanning classes (tens of ms): at 40% fast
// the median is well inside the scanning classes on every run.
type kind int

const (
	rootTitles   kind = iota // Q3: titles of a named article
	rootAttrs                // Q5: attributes of a named article containing "final"
	collContains             // whole-collection contains on a Zipf-drawn word
	sectionTitle             // Q1: section titles containing "Section" and a word
	subsection               // Q2: subsections containing a word (sub-document contains)
	statusFinal              // status = "final" selection; half through a prepared handle
	allTitles                // whole-corpus a PATH_p.title(t)
	allDocs                  // every document: the end-of-run presence check, not in the mix
)

var mix = []struct {
	k   kind
	pct int
}{
	{rootTitles, 12}, {rootAttrs, 12}, {collContains, 28}, {sectionTitle, 18},
	{subsection, 12}, {statusFinal, 16}, {allTitles, 2},
}

// namedRoots is how many articles are named as roots of persistence
// (doc00..doc15) for the single-document templates.
const namedRoots = 16

// statusQuery is the one template that also runs through
// /v1/prepare + /v1/execute.
const statusQuery = `select a from a in Articles where a.status = "final"`

type queryOp struct {
	k        kind
	root     int // named root, for rootTitles and rootAttrs
	word     int // vocabulary word, for the contains templates
	prepared bool
}

func rootName(k int) string { return fmt.Sprintf("doc%02d", k) }

func (o queryOp) src() string {
	w := wordName(o.word)
	switch o.k {
	case rootTitles:
		return fmt.Sprintf(`select t from %s PATH_p.title(t)`, rootName(o.root))
	case rootAttrs:
		return fmt.Sprintf(`select name(ATT_a) from %s PATH_p.ATT_a(val) where val contains ("final")`, rootName(o.root))
	case collContains:
		return fmt.Sprintf(`select a from a in Articles where a contains "%s"`, w)
	case sectionTitle:
		return fmt.Sprintf(`select tuple(t: a.title, f_author: first(a.authors)) from a in Articles, s in a.sections where s.title contains ("Section" and "%s")`, w)
	case subsection:
		return fmt.Sprintf(`select ss from a in Articles, s in a.sections, ss in s.subsectns where ss contains "%s"`, w)
	case statusFinal:
		return statusQuery
	case allDocs:
		return `select a from a in Articles`
	default:
		return `select t from a in Articles, a PATH_p.title(t)`
	}
}

func (o queryOp) name() string {
	return [...]string{"q3_root_titles", "q5_root_attrs", "contains", "q1_section_title",
		"q2_subsection", "status_final", "all_titles", "all_docs"}[o.k]
}

// opSource draws query operations. Templates come in shuffled blocks of
// blockSize that hold each template exactly its share, so every run
// issues the same mix and only the order, roots and words vary; roots
// are uniform, and words follow the corpus's Zipf law over the
// vocabulary, so common words select nearly every document and rare
// ones a few.
type opSource struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	block []kind
}

// blockSize makes every share in mix a whole number of slots.
const blockSize = 50

func newOpSource(seed int64) *opSource {
	rng := rand.New(rand.NewSource(seed))
	return &opSource{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1.0, vocabulary-1)}
}

func (s *opSource) next() queryOp {
	if len(s.block) == 0 {
		for _, m := range mix {
			for i := 0; i < m.pct*blockSize/100; i++ {
				s.block = append(s.block, m.k)
			}
		}
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	o := queryOp{k: s.block[0], root: s.rng.Intn(namedRoots), word: int(s.zipf.Uint64()), prepared: s.rng.Intn(2) == 0}
	s.block = s.block[1:]
	return o
}

// fixedOps is one operation of every template, for the end-of-run checks.
func fixedOps(s *opSource) []queryOp {
	var out []queryOp
	for _, m := range mix {
		o := s.next()
		o.k = m.k
		out = append(out, o)
	}
	return out
}

// rowsResp is the body of /v1/query and /v1/execute.
type rowsResp struct {
	Rows      []json.RawMessage `json:"rows"`
	Count     int               `json:"count"`
	ElapsedUS int64             `json:"elapsed_us"`
	Epoch     uint64            `json:"epoch"`
}

func (r rowsResp) strings() ([]string, error) {
	out := make([]string, len(r.Rows))
	for i, raw := range r.Rows {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("row %d is not a string: %s", i, raw)
		}
	}
	return out, nil
}

// canonical renders the rows order-independently, for comparing two
// servers' answers.
func (r rowsResp) canonical() string {
	rows := make([]string, len(r.Rows))
	for i, raw := range r.Rows {
		rows[i] = string(raw)
	}
	sort.Strings(rows)
	b, _ := json.Marshal(rows)
	return string(b)
}

// check compares an answer with the oracle. The service reads the epoch
// it reports after evaluating the query, so under concurrent commits the
// answer may come from any epoch between from, published before the
// request was sent, and the reported one; the answer must equal the
// oracle's at one of them. skewed reports that it matched only an epoch
// older than the reported one.
func check(or *oracle, roots []int, o queryOp, r rowsResp, from uint64) (skewed bool, err error) {
	if r.Count != len(r.Rows) {
		return false, fmt.Errorf("count %d but %d rows", r.Count, len(r.Rows))
	}
	for e := r.Epoch; ; e-- {
		err = checkAt(or, roots, o, r, e)
		if err == nil || e <= from {
			return err == nil && e != r.Epoch, err
		}
	}
}

// checkAt compares an answer with the oracle at epoch.
func checkAt(or *oracle, roots []int, o queryOp, r rowsResp, epoch uint64) error {
	vis, err := or.visible(epoch)
	if err != nil {
		return err
	}
	wantCount := func(n int) error {
		if r.Count != n {
			return fmt.Errorf("%d rows, want %d", r.Count, n)
		}
		return nil
	}
	wantOIDs := func(keep func(*facts) bool) error {
		got, err := r.strings()
		if err != nil {
			return err
		}
		var want []string
		for _, f := range vis {
			if keep(f) {
				want = append(want, f.oid)
			}
		}
		return sameSet(got, want)
	}
	switch o.k {
	case rootTitles:
		return wantCount(or.at(roots[o.root]).titles)
	case rootAttrs:
		got, err := r.strings()
		if err != nil {
			return err
		}
		var want []string
		if or.at(roots[o.root]).final {
			want = []string{"status"}
		}
		return sameSet(got, want)
	case collContains:
		return wantOIDs(func(f *facts) bool { return f.all.has(o.word) })
	case sectionTitle:
		n := 0
		for _, f := range vis {
			if f.secTitle.has(o.word) {
				n++
			}
		}
		return wantCount(n)
	case subsection:
		n := 0
		for _, f := range vis {
			for _, ss := range f.subsecs {
				if ss.has(o.word) {
					n++
				}
			}
		}
		return wantCount(n)
	case statusFinal:
		return wantOIDs(func(f *facts) bool { return f.final })
	case allDocs:
		return wantOIDs(func(*facts) bool { return true })
	default:
		n := 0
		for _, f := range vis {
			n += f.titles
		}
		return wantCount(n)
	}
}
