package text

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

// codecGolden is the checkpoint encoding of codecFixture. Checkpoints on
// disk carry this format, so it must not move.
const codecGolden = "sgmldb-textindex 1\ndocs 3\nd 1\nd 2\nd 7\nwords 12\n" +
	"w 2:an 1 7 1 0\n" +
	"w 8:document 1 7 1 3\n" +
	"w 9:documents 1 1 1 1\n" +
	"w 10:facilities 2 1 1 5 2 1 2\n" +
	"w 3:for 1 2 1 3\n" +
	"w 5:novel 2 1 1 3 2 1 0\n" +
	"w 5:query 2 1 1 4 2 1 1\n" +
	"w 10:structured 2 1 1 0 2 1 4\n" +
	"w 4:text 1 2 1 5\n" +
	"w 5:third 1 7 1 2\n" +
	"w 2:to 1 1 1 2\n" +
	"w 9:unrelated 1 7 1 1\n" +
	"end\n"

func codecFixture(t testing.TB) *Index {
	ix := NewIndex()
	for _, d := range []struct {
		id   DocID
		text string
	}{
		{1, "structured documents to novel query facilities"},
		{2, "novel query facilities for structured text"},
		{7, "an unrelated third document"},
	} {
		if err := ix.Add(d.id, d.text); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestEncodeOrdersPostingsByDoc pins the encoding of an index whose
// documents were not added in ascending DocID order, across a Clone:
// every word's postings are written by ascending doc, the documents in
// insertion order.
func TestEncodeOrdersPostingsByDoc(t *testing.T) {
	ix := NewIndex()
	if err := ix.Add(9, "beta alpha alpha"); err != nil {
		t.Fatal(err)
	}
	c := ix.Clone()
	for _, d := range []struct {
		id   DocID
		text string
	}{{3, "alpha gamma"}, {5, "alpha"}} {
		if err := c.Add(d.id, d.text); err != nil {
			t.Fatal(err)
		}
	}
	const want = "sgmldb-textindex 1\ndocs 3\nd 9\nd 3\nd 5\nwords 3\n" +
		"w 5:alpha 3 3 1 0 5 1 0 9 2 1 2\n" +
		"w 4:beta 1 9 1 0\n" +
		"w 5:gamma 1 3 1 1\n" +
		"end\n"
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Errorf("Encode = %q, want %q", buf.String(), want)
	}
}

// TestIndexCodecRoundTrip encodes an index and decodes it back, checking
// the exact bytes, documents, vocabulary, phrase and near evaluation —
// the checkpoint path's fidelity requirement.
func TestIndexCodecRoundTrip(t *testing.T) {
	ix := codecFixture(t)
	var buf bytes.Buffer
	if err := ix.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != codecGolden {
		t.Errorf("Encode = %q, want %q", buf.String(), codecGolden)
	}
	buf.WriteString("trailer survives\n")
	br := bufio.NewReader(&buf)
	got, err := DecodeIndex(br)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Docs(), ix.Docs()) {
		t.Errorf("docs = %v, want %v", got.Docs(), ix.Docs())
	}
	if got.VocabularySize() != ix.VocabularySize() {
		t.Errorf("vocab = %d, want %d", got.VocabularySize(), ix.VocabularySize())
	}
	for _, expr := range []Expr{
		MustWord("novel"),
		MatchExpr{Pattern: MustCompile("novel query")}, // phrase
		MatchExpr{Pattern: MustCompile("doc.*")},       // vocabulary scan
		NearExpr{A: "novel", B: "text", Dist: 4},
		NotExpr{E: MustWord("unrelated")},
	} {
		if want, have := ix.Eval(expr), got.Eval(expr); !reflect.DeepEqual(have, want) {
			t.Errorf("Eval(%v) = %v, want %v", expr, have, want)
		}
	}
	// The reader position is exactly past the index section.
	line, err := br.ReadString('\n')
	if err != nil || line != "trailer survives\n" {
		t.Errorf("reader past index section: %q, %v", line, err)
	}
	// The decoded index takes new documents and refuses a re-Add.
	if err := got.Add(9, "fully new content"); err != nil {
		t.Errorf("Add after decode: %v", err)
	}
	if err := got.Add(2, "fully new content"); err == nil {
		t.Error("re-Add after decode succeeded, want error")
	}
	if ids := got.Lookup("content"); !reflect.DeepEqual(ids, []DocID{9}) {
		t.Errorf("content in %v, want [9]", ids)
	}
}

// TestIndexCodecRejectsGarbage feeds malformed sections to the decoder:
// errors, never panics, never partial silent success.
func TestIndexCodecRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not an index\n",
		"sgmldb-textindex 1\n",
		"sgmldb-textindex 1\ndocs x\n",
		"sgmldb-textindex 1\ndocs 1\nd nope\n",
		"sgmldb-textindex 1\ndocs 0\nwords 1\nw 3:abc 1 5 1 0\nend\n",        // posting for undeclared doc
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 2 0\nend\n",   // truncated positions
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 1 0 9\nend\n", // trailing data
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 1 0\nnot-end\n",
		"sgmldb-textindex 1\ndocs 2\nd 5\nd 6\nwords 1\nw 3:abc 2 6 1 0 5 1 0\nend\n",        // postings out of doc order
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 2 5 1 0 5 1 1\nend\n",             // duplicate posting
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 9223372036854775807 5 1 0\nend\n", // posting count past the line
		"sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 9223372036854775807 0\nend\n", // position count past the line
	}
	for _, src := range cases {
		if _, err := DecodeIndex(bufio.NewReader(bytes.NewReader([]byte(src)))); err == nil {
			t.Errorf("DecodeIndex(%q) succeeded, want error", src)
		}
	}
}

// FuzzDecodeIndex: DecodeIndex on arbitrary bytes returns an index or an
// error and never panics, and a decoded index re-encodes to bytes that
// decode to the same index. Checkpoints and the offline checker read
// this section from disk.
func FuzzDecodeIndex(f *testing.F) {
	f.Add([]byte(codecGolden))
	f.Add([]byte("sgmldb-textindex 1\ndocs 1\nd 5\nwords 1\nw 3:abc 1 5 2 0 4\nend\n"))
	f.Add([]byte("sgmldb-textindex 1\ndocs 0\nwords 0\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := DecodeIndex(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := ix.Encode(&first); err != nil {
			t.Fatal(err)
		}
		again, err := DecodeIndex(bufio.NewReader(bytes.NewReader(first.Bytes())))
		if err != nil {
			t.Fatalf("re-encoded index does not decode: %v\n%q", err, first.String())
		}
		if !reflect.DeepEqual(again.Docs(), ix.Docs()) || !reflect.DeepEqual(again.segs, ix.segs) {
			t.Fatalf("re-encoded index decodes differently:\n%q", first.String())
		}
		var second bytes.Buffer
		if err := again.Encode(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("encoding is not stable:\n%q\n%q", first.String(), second.String())
		}
	})
}
