package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The oracle answers the benchmark's query templates from the generated
// SGML sources alone, by plain string scanning. It shares no code with
// the engine: no SGML parser, no mapping, no text index.

// vocabulary is internal/corpus's default: words w0000..w0999.
const vocabulary = 1000

// words is a set of vocabulary words.
type words [(vocabulary + 63) / 64]uint64

func (w *words) add(i int)      { w[i/64] |= 1 << (i % 64) }
func (w *words) has(i int) bool { return w[i/64]&(1<<(i%64)) != 0 }
func wordName(i int) string     { return fmt.Sprintf("w%04d", i) }
func isDigit(c byte) bool       { return c >= '0' && c <= '9' }
func isWordByte(c byte) bool    { return isDigit(c) || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' }

// scanWords collects every standalone token of the form w + 4 digits.
func scanWords(s string) words {
	var out words
	for i := 0; i+5 <= len(s); i++ {
		if s[i] != 'w' || (i > 0 && isWordByte(s[i-1])) {
			continue
		}
		if !isDigit(s[i+1]) || !isDigit(s[i+2]) || !isDigit(s[i+3]) || !isDigit(s[i+4]) {
			continue
		}
		if i+5 < len(s) && isWordByte(s[i+5]) {
			continue
		}
		n := int(s[i+1]-'0')*1000 + int(s[i+2]-'0')*100 + int(s[i+3]-'0')*10 + int(s[i+4]-'0')
		if n < vocabulary {
			out.add(n)
		}
	}
	return out
}

// between returns the substrings that start after each open and end
// before the following close.
func between(s, open, close string) []string {
	var out []string
	for {
		i := strings.Index(s, open)
		if i < 0 {
			return out
		}
		s = s[i+len(open):]
		j := strings.Index(s, close)
		if j < 0 {
			return out
		}
		out = append(out, s[:j])
		s = s[j+len(close):]
	}
}

// facts is what the oracle knows about one generated article.
type facts struct {
	oid      string
	epoch    uint64 // the epoch that made it visible
	final    bool
	titles   int
	all      words   // every word of the document
	secTitle words   // words of the section titles (not subsection titles)
	subsecs  []words // words of each subsection
}

func factsOf(src string) facts {
	f := facts{
		final:  strings.Contains(src, `<article status="final">`),
		titles: strings.Count(src, "<title>"),
		all:    scanWords(src),
	}
	for _, t := range between(src, "<section><title>", "</title>") {
		w := scanWords(t)
		for i := range f.secTitle {
			f.secTitle[i] |= w[i]
		}
	}
	for _, ss := range between(src, "<subsectn>", "</subsectn>") {
		f.subsecs = append(f.subsecs, scanWords(ss))
	}
	return f
}

// oracle is the expected state of the database. Documents are registered
// before they are sent, with the epoch their commit will publish (one
// writer, one epoch per load), so a reader that sees a commit before its
// writer has read the acknowledgement still checks against the right
// document set; their oids are filled in from the acknowledgement.
type oracle struct {
	mu   sync.Mutex
	cond *sync.Cond
	docs []*facts
	acks int
}

func newOracle() *oracle {
	o := &oracle{}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// register records a document about to be committed at epoch and returns
// its index.
func (o *oracle) register(src string, epoch uint64) int {
	f := factsOf(src)
	f.epoch = epoch
	o.mu.Lock()
	defer o.mu.Unlock()
	o.docs = append(o.docs, &f)
	return len(o.docs) - 1
}

// acked records the oid the server assigned to document i.
func (o *oracle) acked(i int, oid string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.docs[i].oid = oid
	o.acks++
	o.cond.Broadcast()
}

// forget drops a registered document whose commit failed.
func (o *oracle) forget(i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.docs[i].epoch = ^uint64(0)
	o.cond.Broadcast()
}

// visible returns the documents visible at epoch, waiting (up to a
// bound) for the oids of any whose acknowledgement is still in flight.
// The returned facts are not modified after their acknowledgement.
func (o *oracle) visible(epoch uint64) ([]*facts, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		out := make([]*facts, 0, len(o.docs))
		pending := false
		for _, f := range o.docs {
			if f.epoch > epoch {
				continue
			}
			if f.oid == "" {
				pending = true
				break
			}
			out = append(out, f)
		}
		if !pending {
			return out, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("oracle: acknowledgement for epoch <= %d never arrived", epoch)
		}
		// A broadcast arrives with every acknowledgement; the timer only
		// bounds a wait whose writer died.
		t := time.AfterFunc(100*time.Millisecond, o.cond.Broadcast)
		o.cond.Wait()
		t.Stop()
	}
}

// at returns the facts of document i.
func (o *oracle) at(i int) facts {
	o.mu.Lock()
	defer o.mu.Unlock()
	return *o.docs[i]
}

// count is the number of acknowledged documents.
func (o *oracle) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.acks
}

// sameSet reports whether got lists exactly the oids in want.
func sameSet(got []string, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q not expected (first difference)", g[i])
		}
	}
	return nil
}
