// Package corpus generates deterministic synthetic SGML document
// collections for the benchmarks — the substitute for the paper's
// (unpublished) document corpora. Documents conform to the Figure 1
// article DTD; their text follows a Zipf word distribution over a
// synthetic vocabulary, so full-text selectivities resemble real
// collections.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"sgmldb/internal/calculus"
	"sgmldb/internal/dtdmap"
	"sgmldb/internal/sgml"
	"sgmldb/internal/text"
)

// Params controls generation. The zero value is adjusted to the defaults
// documented on each field.
type Params struct {
	Docs          int // number of articles (default 10)
	Sections      int // sections per article (default 5)
	Subsections   int // subsections per a2-section (default 2)
	Bodies        int // bodies per section/subsection (default 3)
	Words         int // words per paragraph (default 30)
	Authors       int // authors per article (default 3)
	Vocabulary    int // vocabulary size (default 1000)
	SubsectnEvery int // every n-th section uses the a2 branch (default 3)
	FigureEvery   int // every n-th body is a figure (default 4)
	Seed          int64
}

func (p Params) withDefaults() Params {
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&p.Docs, 10)
	def(&p.Sections, 5)
	def(&p.Subsections, 2)
	def(&p.Bodies, 3)
	def(&p.Words, 30)
	def(&p.Authors, 3)
	def(&p.Vocabulary, 1000)
	def(&p.SubsectnEvery, 3)
	def(&p.FigureEvery, 4)
	return p
}

// ArticleDTD is the Figure 1 DTD (with reflabel relaxed to #IMPLIED, as
// the paper's own Figure 2 instance requires).
const ArticleDTD = `<!DOCTYPE article [
<!ELEMENT article - - (title, author+, affil, abstract, section+, acknowl)>
<!ATTLIST article status (final | draft) draft>
<!ELEMENT title - O (#PCDATA)>
<!ELEMENT author - O (#PCDATA)>
<!ELEMENT affil - O (#PCDATA)>
<!ELEMENT abstract - O (#PCDATA)>
<!ELEMENT section - O ((title, body+) | (title, body*, subsectn+))>
<!ELEMENT subsectn - O (title, body+)>
<!ELEMENT body - O (figure | paragr)>
<!ELEMENT figure - O (picture, caption?)>
<!ATTLIST figure label ID #IMPLIED>
<!ELEMENT picture - O EMPTY>
<!ATTLIST picture sizex NMTOKEN "16cm"
                  sizey NMTOKEN #IMPLIED
                  file ENTITY #IMPLIED>
<!ELEMENT caption O O (#PCDATA)>
<!ELEMENT paragr - O (#PCDATA)>
<!ATTLIST paragr reflabel IDREF #IMPLIED>
<!ELEMENT acknowl - O (#PCDATA)>
]>`

// LettersDTD is the Section 4.4 letters grammar, with the "&" connector.
const LettersDTD = `<!DOCTYPE letter [
<!ELEMENT letter - - (preamble, content)>
<!ELEMENT preamble - O (to & from)>
<!ELEMENT to - O (#PCDATA)>
<!ELEMENT from - O (#PCDATA)>
<!ELEMENT content - O (#PCDATA)>
]>`

// Generator produces documents and databases.
type Generator struct {
	params Params
	rng    *rand.Rand
	zipf   *rand.Zipf
	vocab  []string
}

// NewGenerator builds a deterministic generator.
func NewGenerator(p Params) *Generator {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	g := &Generator{
		params: p,
		rng:    rng,
		zipf:   rand.NewZipf(rng, 1.2, 1.0, uint64(p.Vocabulary-1)),
		vocab:  make([]string, p.Vocabulary),
	}
	for i := range g.vocab {
		g.vocab[i] = fmt.Sprintf("w%04d", i)
	}
	return g
}

// word draws one Zipf-distributed word.
func (g *Generator) word() string { return g.vocab[g.zipf.Uint64()] }

// sentence draws n words.
func (g *Generator) sentence(n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = g.word()
	}
	return strings.Join(ws, " ")
}

// Article generates one SGML article instance (source text).
func (g *Generator) Article(id int) string {
	p := g.params
	var b strings.Builder
	status := "draft"
	if id%2 == 0 {
		status = "final"
	}
	fmt.Fprintf(&b, "<article status=\"%s\">\n", status)
	fmt.Fprintf(&b, "<title>Article %d on %s</title>\n", id, g.sentence(4))
	for a := 0; a < p.Authors; a++ {
		fmt.Fprintf(&b, "<author>Author %d-%d\n", id, a)
	}
	fmt.Fprintf(&b, "<affil>Institute %d\n", id%7)
	fmt.Fprintf(&b, "<abstract>%s\n", g.sentence(p.Words))
	for s := 0; s < p.Sections; s++ {
		fmt.Fprintf(&b, "<section><title>Section %d %s</title>\n", s, g.sentence(3))
		withSubs := p.SubsectnEvery > 0 && s%p.SubsectnEvery == p.SubsectnEvery-1
		if withSubs {
			for ss := 0; ss < p.Subsections; ss++ {
				fmt.Fprintf(&b, "<subsectn><title>Subsection %d.%d %s</title>\n", s, ss, g.sentence(2))
				g.bodies(&b, id, s*100+ss)
				b.WriteString("</subsectn>\n")
			}
		} else {
			g.bodies(&b, id, s)
		}
		b.WriteString("</section>\n")
	}
	fmt.Fprintf(&b, "<acknowl>%s\n", g.sentence(8))
	b.WriteString("</article>\n")
	return b.String()
}

func (g *Generator) bodies(b *strings.Builder, id, sec int) {
	p := g.params
	for i := 0; i < p.Bodies; i++ {
		if p.FigureEvery > 0 && i%p.FigureEvery == p.FigureEvery-1 {
			fmt.Fprintf(b, "<body><figure label=\"fig-%d-%d-%d\"><picture sizex=\"%dcm\">", id, sec, i, 4+i)
			fmt.Fprintf(b, "caption %s</figure></body>\n", g.sentence(4))
		} else {
			fmt.Fprintf(b, "<body><paragr>%s</body>\n", g.sentence(p.Words))
		}
	}
}

// Letter generates one letters-DTD instance; even ids put the recipient
// first.
func (g *Generator) Letter(id int) string {
	if id%2 == 0 {
		return fmt.Sprintf("<letter><preamble><to>Recipient %d<from>Sender %d</preamble><content>%s</letter>",
			id, id, g.sentence(10))
	}
	return fmt.Sprintf("<letter><preamble><from>Sender %d<to>Recipient %d</preamble><content>%s</letter>",
		id, id, g.sentence(10))
}

// Database is a generated, loaded corpus ready for querying.
type Database struct {
	Mapping *dtdmap.Mapping
	Loader  *dtdmap.Loader
	Env     *calculus.Env
	Index   *text.Index
	// RawBytes is the total size of the generated SGML sources (the
	// storage-overhead baseline of experiment B4).
	RawBytes int
}

// BuildArticles generates and loads an article corpus, wiring the text
// operator and the full-text index.
func BuildArticles(p Params) (*Database, error) {
	g := NewGenerator(p)
	dtd, err := sgml.ParseDTD(ArticleDTD)
	if err != nil {
		return nil, err
	}
	m, err := dtdmap.MapDTD(dtd)
	if err != nil {
		return nil, err
	}
	loader := dtdmap.NewLoader(m)
	db := &Database{Mapping: m, Loader: loader}
	for i := 0; i < g.params.Docs; i++ {
		src := g.Article(i)
		db.RawBytes += len(src)
		doc, err := sgml.ParseDocument(dtd, src)
		if err != nil {
			return nil, fmt.Errorf("corpus: article %d: %w", i, err)
		}
		if _, err := loader.Load(doc); err != nil {
			return nil, fmt.Errorf("corpus: article %d: %w", i, err)
		}
	}
	if err := db.finish(); err != nil {
		return nil, err
	}
	return db, nil
}

// BuildLetters generates and loads a letters corpus.
func BuildLetters(p Params) (*Database, error) {
	g := NewGenerator(p)
	dtd, err := sgml.ParseDTD(LettersDTD)
	if err != nil {
		return nil, err
	}
	m, err := dtdmap.MapDTD(dtd)
	if err != nil {
		return nil, err
	}
	loader := dtdmap.NewLoader(m)
	db := &Database{Mapping: m, Loader: loader}
	for i := 0; i < g.params.Docs; i++ {
		src := g.Letter(i)
		db.RawBytes += len(src)
		doc, err := sgml.ParseDocument(dtd, src)
		if err != nil {
			return nil, fmt.Errorf("corpus: letter %d: %w", i, err)
		}
		if _, err := loader.Load(doc); err != nil {
			return nil, fmt.Errorf("corpus: letter %d: %w", i, err)
		}
	}
	if err := db.finish(); err != nil {
		return nil, err
	}
	return db, nil
}

// finish wires the text operator and builds the index.
func (db *Database) finish() error {
	inst := db.Loader.Instance
	db.Env = calculus.NewEnv(inst)
	db.Env.TextOf = dtdmap.TextOf
	db.Index = text.NewIndex()
	for _, o := range db.Loader.Documents() {
		if err := db.Index.Add(text.DocID(o), dtdmap.TextOf(inst, o)); err != nil {
			return fmt.Errorf("corpus: %w", err)
		}
	}
	return nil
}
