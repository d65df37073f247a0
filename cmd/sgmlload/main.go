// Command sgmlload parses SGML documents against a DTD, loads them into a
// database (Section 3's document→instance mapping) and writes the database
// image (Database.Save) that cmd/oql opens.
//
// Usage:
//
//	sgmlload -dtd article.dtd -o articles.snap doc1.sgml doc2.sgml …
//
// Each document may additionally be named with -name for use as a root of
// persistence in queries (applied to the first document).
package main

import (
	"flag"
	"fmt"
	"os"

	"sgmldb"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sgmlload:", err)
		os.Exit(1)
	}
}

func run() error {
	dtdPath := flag.String("dtd", "", "DTD file (required)")
	out := flag.String("o", "db.snap", "database image output file")
	name := flag.String("name", "", "declare the first document under this persistence root")
	verbose := flag.Bool("v", false, "print per-document statistics")
	flag.Parse()
	if *dtdPath == "" || flag.NArg() == 0 {
		return fmt.Errorf("usage: sgmlload -dtd file.dtd [-o out.snap] [-name root] doc.sgml…")
	}
	db, err := sgmldb.OpenDTDFile(*dtdPath)
	if err != nil {
		return err
	}
	for i, path := range flag.Args() {
		oid, err := db.LoadDocumentFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if i == 0 && *name != "" {
			if err := db.Name(*name, oid); err != nil {
				return err
			}
		}
		if *verbose {
			fmt.Printf("loaded %s as %s\n", path, oid)
		}
	}
	if errs := db.Check(); len(errs) != 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "integrity:", e)
		}
		return fmt.Errorf("%d integrity violations", len(errs))
	}
	st := db.Stats()
	fmt.Printf("loaded %d documents: %d objects, %d value bytes\n",
		flag.NArg(), st.Objects, st.ValueBytes)
	return db.Save(*out)
}
