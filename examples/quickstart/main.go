// Quickstart: the paper's running example end to end — compile the
// Figure 1 DTD into the Figure 3 schema, load the Figure 2 article, and
// run the Section 4 queries Q1 and Q3.
package main

import (
	"fmt"
	"log"

	"sgmldb"
	"sgmldb/internal/object"
)

const articleDTD = `<!DOCTYPE article [
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
<!ATTLIST picture sizex NMTOKEN "16cm" sizey NMTOKEN #IMPLIED file ENTITY #IMPLIED>
<!ELEMENT caption O O (#PCDATA)>
<!ELEMENT paragr - O (#PCDATA)>
<!ATTLIST paragr reflabel IDREF #IMPLIED>
<!ELEMENT acknowl - O (#PCDATA)>
]>`

const article = `<article status="final">
<title>From Structured Documents to Novel Query Facilities</title>
<author>V. Christophides
<author>S. Abiteboul
<author>S. Cluet
<author>M. Scholl
<affil>I.N.R.I.A.
<abstract>Structured documents can benefit a lot from database support,
notably SGML repositories stored in an OODBMS.
<section><title>Combining SGML and an OODBMS</title>
<body><paragr>This section explains why the mapping works.</body>
</section>
<section><title>Query facilities</title>
<body><paragr>Paths are first class citizens.</body>
</section>
<acknowl>Thanks to the Verso group.
</article>`

func main() {
	// 1. DTD → schema (Figure 1 → Figure 3).
	db, err := sgmldb.OpenDTD(articleDTD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== generated O2 schema (Figure 3) ===")
	fmt.Println(db.SchemaString())

	// 2. Document instance → objects (Figure 2 → a database).
	oid, err := db.LoadDocument(article)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Name("my_article", oid); err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("loaded article %s: %d objects\n\n", oid, st.Objects)

	// 3. Q1: the title and first author of articles having a section with
	// a title containing "SGML" and "OODBMS".
	q1 := `
select tuple (t: a.title, f_author: first(a.authors))
from a in Articles, s in a.sections
where s.title contains ("SGML" and "OODBMS")`
	res, err := db.Query(q1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Q1 ===")
	for _, row := range res.(*object.Set).Elems() {
		tup := row.(*object.Tuple)
		title, _ := tup.Get("t")
		author, _ := tup.Get("f_author")
		fmt.Printf("title=%q first author=%q\n", db.Text(title), db.Text(author))
	}

	// 4. Q3: all titles in my_article, wherever they occur.
	res, err = db.Query(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Q3 ===")
	for _, t := range res.(*object.Set).Elems() {
		fmt.Printf("title: %q\n", db.Text(t))
	}

	// 5. The same query through the Section 5.4 algebra. The evaluation
	// strategy is fixed at open time, so the algebra runs on a second
	// database holding the same article.
	adb, err := sgmldb.OpenDTD(articleDTD, sgmldb.WithAlgebra(true))
	if err != nil {
		log.Fatal(err)
	}
	aoid, err := adb.LoadDocument(article)
	if err != nil {
		log.Fatal(err)
	}
	if err := adb.Name("my_article", aoid); err != nil {
		log.Fatal(err)
	}
	res2, err := adb.Query(`select t from my_article PATH_p.title(t)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalgebraic evaluation agrees: %v\n",
		object.Equal(res, res2))
}
