// Command oql runs extended O₂SQL queries (Section 4 of the paper) over a
// database image written by sgmlload or benchgen -snap (Database.Save),
// one-shot or as a REPL.
//
// Usage:
//
//	oql -db articles.snap -q 'select t from my_article PATH_p.title(t)'
//	oql -db articles.snap            # REPL, one query per line
//	oql -db articles.snap -algebra -explain -q '…'
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sgmldb"
	"sgmldb/internal/path"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oql:", err)
		os.Exit(1)
	}
}

func run() error {
	dbPath := flag.String("db", "", "database image (required)")
	query := flag.String("q", "", "query to run (omit for a REPL)")
	useAlgebra := flag.Bool("algebra", false, "evaluate through the Section 5.4 algebra")
	explain := flag.Bool("explain", false, "print the algebra plan instead of running")
	semantics := flag.String("semantics", "restricted", "path-variable semantics: restricted | liberal")
	flag.Parse()
	if *dbPath == "" {
		return fmt.Errorf("usage: oql -db file.snap [-q query] [-algebra] [-explain] [-semantics restricted|liberal]")
	}
	db, err := sgmldb.OpenSnapshot(*dbPath, sgmldb.WithAlgebra(*useAlgebra))
	if err != nil {
		return err
	}
	switch *semantics {
	case "restricted":
		db.Engine.Env.Semantics = path.Restricted
	case "liberal":
		db.Engine.Env.Semantics = path.Liberal
	default:
		return fmt.Errorf("unknown -semantics %q", *semantics)
	}
	exec := func(q string) {
		q = strings.TrimSpace(q)
		if q == "" {
			return
		}
		if *explain {
			plan, err := db.Engine.Plan(q)
			if err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				return
			}
			fmt.Print(plan.Explain())
			return
		}
		v, err := db.Query(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Println(v)
	}
	if *query != "" {
		exec(*query)
		return nil
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Println("sgmldb oql — one query per line, Ctrl-D to quit")
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		exec(sc.Text())
	}
}
