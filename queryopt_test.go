package sgmldb

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"sgmldb/internal/calculus"
)

// TestClampBudget pins the per-axis merge rule: an unrequested axis keeps
// the database limit, a requested axis on an unlimited database applies
// as is, and where both are set the tighter limit wins — a per-call
// option can never exceed what the database grants.
func TestClampBudget(t *testing.T) {
	cases := []struct {
		name      string
		base, req calculus.Budget
		want      calculus.Budget
	}{
		{"both zero", calculus.Budget{}, calculus.Budget{}, calculus.Budget{}},
		{"req on unlimited base",
			calculus.Budget{},
			calculus.Budget{MaxRows: 5, MaxMem: 10, MaxDuration: time.Second},
			calculus.Budget{MaxRows: 5, MaxMem: 10, MaxDuration: time.Second}},
		{"unrequested keeps base",
			calculus.Budget{MaxRows: 100, MaxMem: 200, MaxDuration: time.Minute},
			calculus.Budget{},
			calculus.Budget{MaxRows: 100, MaxMem: 200, MaxDuration: time.Minute}},
		{"tighter request wins",
			calculus.Budget{MaxRows: 100, MaxMem: 200, MaxDuration: time.Minute},
			calculus.Budget{MaxRows: 5, MaxMem: 500, MaxDuration: time.Hour},
			calculus.Budget{MaxRows: 5, MaxMem: 200, MaxDuration: time.Minute}},
	}
	for _, tc := range cases {
		if got := clampBudget(tc.base, tc.req); got != tc.want {
			t.Errorf("%s: clampBudget(%+v, %+v) = %+v, want %+v", tc.name, tc.base, tc.req, got, tc.want)
		}
	}
}

// openWideDB opens a database whose Articles root holds enough documents
// that a scan crosses the meter's 64-row poll stride — budget enforcement
// is strided, so a budget of 1 only observably trips on a scan this wide.
func openWideDB(t *testing.T, opts ...Option) *Database {
	t.Helper()
	db, err := OpenDTD(articleDTDSrc(t), opts...)
	if err != nil {
		t.Fatal(err)
	}
	src := articleSrcT(t)
	srcs := make([]string, 200)
	for i := range srcs {
		srcs[i] = src
	}
	if _, err := db.LoadDocuments(srcs); err != nil {
		t.Fatal(err)
	}
	return db
}

const wideQuery = `select a from a in Articles`

// TestQueryOptionsEnforced exercises the per-call budget end to end: a
// query that runs fine un-optioned is killed by a per-call row budget and
// by a per-call memory budget, on both the ad-hoc and the prepared paths,
// while the un-optioned paths stay unlimited.
func TestQueryOptionsEnforced(t *testing.T) {
	db := openWideDB(t)

	if _, err := db.QueryContext(context.Background(), wideQuery); err != nil {
		t.Fatalf("un-optioned query: %v", err)
	}
	if _, err := db.QueryContext(context.Background(), wideQuery, QMaxRows(1)); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("QMaxRows(1): err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := db.QueryContext(context.Background(), wideQuery, QMaxMemory(1)); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("QMaxMemory(1): err = %v, want ErrBudgetExceeded", err)
	}

	pq, err := db.Prepare(wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pq.Run(context.Background()); err != nil {
		t.Fatalf("un-optioned prepared run: %v", err)
	}
	if _, err := pq.Run(context.Background(), QMaxRows(1)); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("prepared Run QMaxRows(1): err = %v, want ErrBudgetExceeded", err)
	}
	if _, err := pq.Run(context.Background(), QMaxMemory(1)); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("prepared Run QMaxMemory(1): err = %v, want ErrBudgetExceeded", err)
	}
	// The per-call budget is per execution, not sticky: the statement
	// still runs unlimited afterwards.
	if _, err := pq.Run(context.Background()); err != nil {
		t.Errorf("prepared run after budgeted run: %v", err)
	}
}

// TestQueryOptionsCannotExceedDatabase pins the override-downward-only
// contract: with a database-level row budget of 1, a per-call request for
// a million rows still trips at 1.
func TestQueryOptionsCannotExceedDatabase(t *testing.T) {
	db := openWideDB(t, WithMaxRows(1))
	if _, err := db.QueryContext(context.Background(), wideQuery, QMaxRows(1_000_000)); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("QMaxRows above database limit: err = %v, want ErrBudgetExceeded", err)
	}
}

// TestStatsCounters drives one success and one budget kill through the
// facade and asserts the Stats counters observe them.
func TestStatsCounters(t *testing.T) {
	db := openWideDB(t)

	if _, err := db.Query(wideQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(context.Background(), wideQuery, QMaxRows(1)); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budgeted query: %v", err)
	}
	st := db.Stats()
	if st.QueriesServed != 2 {
		t.Errorf("QueriesServed = %d, want 2", st.QueriesServed)
	}
	if st.BudgetExceeded != 1 {
		t.Errorf("BudgetExceeded = %d, want 1", st.BudgetExceeded)
	}
	if st.Epoch != db.Epoch() {
		t.Errorf("Epoch = %d, want %d", st.Epoch, db.Epoch())
	}
	if st.Durable {
		t.Error("Durable = true on an in-memory database")
	}
	if st.Objects == 0 {
		t.Error("embedded instance stats missing")
	}
}

// articleDTDSrc and articleSrcT load the article corpus sources for
// tests in this file (chaos_test.go owns articleSrc).
func articleDTDSrc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("testdata/article.dtd")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func articleSrcT(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("testdata/article.sgml")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}
