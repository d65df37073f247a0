package text

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint serialization of an index. The WAL checkpointer persists the
// published (instance, index, schema) triple so recovery does not have to
// re-tokenize every document ever loaded; only the log tail behind the
// checkpoint is re-indexed on replay. The encoding is line-oriented and
// deterministic (words sorted, postings by ascending doc), in the same
// spirit as the store snapshot format.

const indexMagic = "sgmldb-textindex 1"

// Encode writes the index in the checkpoint format. The checkpointer
// serializes a published, immutable version.
func (ix *Index) Encode(w io.Writer) error {
	if _, err := fmt.Fprintln(w, indexMagic); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "docs %d\n", len(ix.order)); err != nil {
		return err
	}
	for _, d := range ix.order {
		if _, err := fmt.Fprintf(w, "d %d\n", uint64(d)); err != nil {
			return err
		}
	}
	words := ix.vocabulary()
	if _, err := fmt.Fprintf(w, "words %d\n", len(words)); err != nil {
		return err
	}
	var b strings.Builder
	for _, word := range words {
		ps := append([]posting(nil), ix.vocab[word]...)
		sort.Slice(ps, func(i, j int) bool { return ps[i].doc < ps[j].doc })
		b.Reset()
		b.WriteString("w ")
		b.WriteString(strconv.Itoa(len(word)))
		b.WriteByte(':')
		b.WriteString(word)
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(len(ps)))
		for _, p := range ps {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(uint64(p.doc), 10))
			b.WriteByte(' ')
			b.WriteString(strconv.Itoa(len(p.positions)))
			for _, pos := range p.positions {
				b.WriteByte(' ')
				b.WriteString(strconv.Itoa(pos))
			}
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "end")
	return err
}

// DecodeIndex reads an index written by Encode. It reads exactly the
// encoded section, so the reader may carry further data (the checkpoint
// file embeds the index between other sections).
func DecodeIndex(r *bufio.Reader) (*Index, error) {
	line, err := readIndexLine(r)
	if err != nil {
		return nil, err
	}
	if line != indexMagic {
		return nil, fmt.Errorf("text: not an index section (got %q)", line)
	}
	ix := NewIndex()
	nDocs, err := countLine(r, "docs")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nDocs; i++ {
		line, err := readIndexLine(r)
		if err != nil {
			return nil, err
		}
		id, ok := strings.CutPrefix(line, "d ")
		if !ok {
			return nil, fmt.Errorf("text: bad doc line %q", line)
		}
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("text: bad doc id %q", id)
		}
		d := DocID(n)
		if ix.docs[d] {
			return nil, fmt.Errorf("text: duplicate doc %d", d)
		}
		ix.docs[d] = true
		ix.order = append(ix.order, d)
	}
	nWords, err := countLine(r, "words")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nWords; i++ {
		line, err := readIndexLine(r)
		if err != nil {
			return nil, err
		}
		if err := ix.decodeWordLine(line); err != nil {
			return nil, err
		}
	}
	line, err = readIndexLine(r)
	if err != nil {
		return nil, err
	}
	if line != "end" {
		return nil, fmt.Errorf("text: index section missing end (got %q)", line)
	}
	return ix, nil
}

// decodeWordLine parses one "w <len>:<word> <k> <doc> <npos> <pos...>…"
// line into the index under construction.
func (ix *Index) decodeWordLine(line string) error {
	rest, ok := strings.CutPrefix(line, "w ")
	if !ok {
		return fmt.Errorf("text: bad word line %q", line)
	}
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return fmt.Errorf("text: bad word line %q", line)
	}
	wlen, err := strconv.Atoi(rest[:colon])
	if err != nil || wlen < 0 || colon+1+wlen > len(rest) {
		return fmt.Errorf("text: bad word length in %q", line)
	}
	word := rest[colon+1 : colon+1+wlen]
	fields := strings.Fields(rest[colon+1+wlen:])
	if len(fields) < 1 {
		return fmt.Errorf("text: word line %q missing posting count", line)
	}
	k, err := strconv.Atoi(fields[0])
	fields = fields[1:]
	// Each posting takes at least two fields, which bounds the count
	// before it sizes an allocation.
	if err != nil || k < 0 || k > len(fields)/2 {
		return fmt.Errorf("text: bad posting count in %q", line)
	}
	ps := make([]posting, 0, k)
	for j := 0; j < k; j++ {
		if len(fields) < 2 {
			return fmt.Errorf("text: truncated posting in %q", line)
		}
		docN, err1 := strconv.ParseUint(fields[0], 10, 64)
		npos, err2 := strconv.Atoi(fields[1])
		if err1 != nil || err2 != nil || npos < 0 || npos > len(fields)-2 {
			return fmt.Errorf("text: bad posting in %q", line)
		}
		positions := make([]int, npos)
		for p := 0; p < npos; p++ {
			positions[p], err = strconv.Atoi(fields[2+p])
			if err != nil {
				return fmt.Errorf("text: bad position in %q", line)
			}
		}
		fields = fields[2+npos:]
		doc := DocID(docN)
		if !ix.docs[doc] {
			return fmt.Errorf("text: posting for undeclared doc %d", doc)
		}
		if j > 0 && doc <= ps[j-1].doc {
			return fmt.Errorf("text: postings out of doc order in %q", line)
		}
		ps = append(ps, posting{doc: doc, positions: positions})
	}
	if len(fields) != 0 {
		return fmt.Errorf("text: trailing data on word line %q", line)
	}
	if _, dup := ix.vocab[word]; dup {
		return fmt.Errorf("text: duplicate word %q", word)
	}
	ix.vocab[word] = ps
	return nil
}

func countLine(r *bufio.Reader, verb string) (int, error) {
	line, err := readIndexLine(r)
	if err != nil {
		return 0, err
	}
	rest, ok := strings.CutPrefix(line, verb+" ")
	if !ok {
		return 0, fmt.Errorf("text: expected %q line, got %q", verb, line)
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("text: bad %s count %q", verb, rest)
	}
	return n, nil
}

func readIndexLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err == io.EOF && line != "" {
		return strings.TrimRight(line, "\n"), nil
	}
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}
