package sgmldb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgmldb/internal/object"
	"sgmldb/internal/store"
	"sgmldb/internal/text"
)

// Save writes one on-disk image — the write-ahead log's checkpoint
// format, carrying the instance, the full-text index, the document list
// and the DTD — and OpenSnapshot reopens it as an ordinary database.

// imageDB loads the article fixture twice, the second copy with an extra
// section, so contains queries tell the documents apart.
func imageDB(t *testing.T, opts ...Option) *Database {
	t.Helper()
	db, err := OpenDTDFile("testdata/article.dtd", opts...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	extra := strings.Replace(string(src), "<acknowl>",
		"<section><title>Zebra Section</title><body><paragr>zebras graze here</body></section>\n<acknowl>", 1)
	oids, err := db.LoadDocuments([]string{string(src), extra})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Name("my_article", oids[0]); err != nil {
		t.Fatal(err)
	}
	return db
}

// reopen saves db and opens the image.
func reopen(t *testing.T, db *Database) *Database {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.img")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	img, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func encodeIndex(t *testing.T, ix *text.Index) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ix.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

var imageQueries = []string{
	`select a from a in Articles where a contains "SGML"`,
	`select a from a in Articles where a contains "zebras"`,
	`select s from a in Articles, s in a.sections where s contains ("SGML" and "OODBMS")`,
	`select t from my_article PATH_p.title(t)`,
}

// TestImageContainsThroughSavedIndex: the reopened image publishes the
// saved index itself — byte-identical to the original's published index,
// not a rebuild — and answers every query, contains included, exactly as
// the original does.
func TestImageContainsThroughSavedIndex(t *testing.T) {
	db := imageDB(t)
	img := reopen(t, db)
	if !bytes.Equal(encodeIndex(t, img.Engine.State().Index), encodeIndex(t, db.Engine.State().Index)) {
		t.Error("reopened image publishes a different full-text index")
	}
	if img.Epoch() != db.Epoch() {
		t.Errorf("image epoch = %d, want %d", img.Epoch(), db.Epoch())
	}
	for _, q := range imageQueries {
		want, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := img.Query(q)
		if err != nil {
			t.Fatalf("%s on image: %v", q, err)
		}
		if !object.Equal(got, want) {
			t.Errorf("%s: image = %s, want %s", q, got, want)
		}
	}
	// The fixture makes contains discriminate: both articles mention
	// SGML, only the second one zebras.
	for q, n := range map[string]int{imageQueries[0]: 2, imageQueries[1]: 1} {
		if got, err := img.Query(q); err != nil || got.(*object.Set).Len() != n {
			t.Errorf("%s on image = %v (err %v), want %d documents", q, got, err, n)
		}
	}
}

// TestImageExportReloads: a reopened image carries its DTD, so Export
// works on it, and the exported source reloads into an isomorphic
// document — one that exports to the same source and has the same text.
func TestImageExportReloads(t *testing.T) {
	db := imageDB(t)
	img := reopen(t, db)
	fresh, err := OpenDTDFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	for _, oid := range img.Loader.Documents() {
		out, err := img.Export(oid)
		if err != nil {
			t.Fatalf("export %s from image: %v", oid, err)
		}
		if orig, err := db.Export(oid); err != nil || orig != out {
			t.Fatalf("export %s: image and original disagree (err %v)", oid, err)
		}
		oid2, err := fresh.LoadDocument(out)
		if err != nil {
			t.Fatalf("reload export of %s: %v", oid, err)
		}
		again, err := fresh.Export(oid2)
		if err != nil {
			t.Fatal(err)
		}
		if again != out {
			t.Errorf("export of %s is not a fixpoint after reload", oid)
		}
		if fresh.Text(oid2) != img.Text(oid) {
			t.Errorf("reloaded %s has different text", oid)
		}
	}
}

// TestImageFromDurableDatabase: Save on a durable database writes the
// image of its published version, and a checkpoint file of the data
// directory is itself an image OpenSnapshot opens.
func TestImageFromDurableDatabase(t *testing.T) {
	dir := t.TempDir()
	db := imageDB(t, WithDataDir(dir), WithCheckpointEvery(-1))
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ckPath, _, ok, err := db.NewestCheckpointFile()
	if err != nil || !ok {
		t.Fatalf("newest checkpoint: ok=%v err=%v", ok, err)
	}
	fromCkpt, err := OpenSnapshot(ckPath)
	if err != nil {
		t.Fatalf("open checkpoint file as image: %v", err)
	}
	for name, img := range map[string]*Database{"Save": reopen(t, db), "checkpoint": fromCkpt} {
		if img.Epoch() != db.Epoch() {
			t.Errorf("%s image epoch = %d, want %d", name, img.Epoch(), db.Epoch())
		}
		if img.Stats().Durable {
			t.Errorf("%s image reopened durable, want in-memory", name)
		}
		for _, q := range imageQueries {
			want, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := img.Query(q)
			if err != nil || !object.Equal(got, want) {
				t.Errorf("%s image: %s = %v (err %v), want %s", name, q, got, err, want)
			}
		}
	}
}

// TestImageRefusesOldSnapshotFormat: a file in the retired bare-instance
// snapshot format ("sgmldb-snapshot 1", no index, no DTD) is refused with
// an error naming the problem, never misparsed.
func TestImageRefusesOldSnapshotFormat(t *testing.T) {
	db := imageDB(t)
	var old bytes.Buffer
	if err := store.Save(&old, db.Instance()); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(old.String(), "sgmldb-snapshot 1\n") {
		t.Fatalf("fixture is not the old snapshot format: %.40q", old.String())
	}
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, old.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenSnapshot(path)
	if err == nil {
		t.Fatal("OpenSnapshot accepted an old-format snapshot")
	}
	if msg := err.Error(); !strings.Contains(msg, "not a database image") || !strings.Contains(msg, "sgmldb-snapshot 1") {
		t.Errorf("old-format error = %q, want it to say the file is not a database image and show its header", msg)
	}
}
