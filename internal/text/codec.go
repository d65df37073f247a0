package text

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
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
// serializes a published, immutable version. Every line is built in one
// reused buffer, and a word's postings are gathered across the segments
// into another, sorted only when they are not already ascending by doc.
func (ix *Index) Encode(w io.Writer) error {
	line := make([]byte, 0, 256)
	line = append(line, indexMagic+"\ndocs "...)
	line = strconv.AppendInt(line, int64(ix.Size()), 10)
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		return err
	}
	for _, s := range ix.segs {
		for _, d := range s.order {
			line = append(line[:0], "d "...)
			line = strconv.AppendUint(line, uint64(d), 10)
			line = append(line, '\n')
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	words := ix.sortedWords()
	line = append(line[:0], "words "...)
	line = strconv.AppendInt(line, int64(len(words)), 10)
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		return err
	}
	var ps []posting
	for _, word := range words {
		ps = ps[:0]
		for _, s := range ix.segs {
			ps = append(ps, s.vocab[word]...)
		}
		if !slices.IsSortedFunc(ps, byDoc) {
			slices.SortFunc(ps, byDoc)
		}
		line = append(line[:0], "w "...)
		line = strconv.AppendInt(line, int64(len(word)), 10)
		line = append(line, ':')
		line = append(line, word...)
		line = append(line, ' ')
		line = strconv.AppendInt(line, int64(len(ps)), 10)
		for _, p := range ps {
			line = append(line, ' ')
			line = strconv.AppendUint(line, uint64(p.doc), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(len(p.positions)), 10)
			for _, pos := range p.positions {
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(pos), 10)
			}
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "end\n")
	return err
}

func byDoc(a, b posting) int { return cmp.Compare(a.doc, b.doc) }

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
	seg := newSegment()
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
		if seg.docs[d] {
			return nil, fmt.Errorf("text: duplicate doc %d", d)
		}
		seg.docs[d] = true
		seg.order = append(seg.order, d)
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
		if err := seg.decodeWordLine(line); err != nil {
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
	return &Index{segs: []*segment{seg}}, nil
}

// decodeWordLine parses one "w <len>:<word> <k> <doc> <npos> <pos...>…"
// line into the segment under construction.
func (seg *segment) decodeWordLine(line string) error {
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
		if !seg.docs[doc] {
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
	if _, dup := seg.vocab[word]; dup {
		return fmt.Errorf("text: duplicate word %q", word)
	}
	seg.vocab[word] = ps
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
