package sgmldb

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// TestCodeRoundTrip (code_test.go) checks the mappings that exist;
// this file checks that no mapping is MISSING. It parses errors.go and
// code.go at test time, so adding a sentinel without a wire code — or
// a code no error can produce — fails here instead of degrading to
// UNKNOWN on the wire.

// sentinelByName mirrors errors.go by hand; the parse keeps it honest.
var sentinelByName = map[string]error{
	"ErrReadOnly":           ErrReadOnly,
	"ErrUnknownObject":      ErrUnknownObject,
	"ErrOverloaded":         ErrOverloaded,
	"ErrBudgetExceeded":     ErrBudgetExceeded,
	"ErrInternal":           ErrInternal,
	"ErrParse":              ErrParse,
	"ErrTypecheck":          ErrTypecheck,
	"ErrCorruptLog":         ErrCorruptLog,
	"ErrUnsupportedVersion": ErrUnsupportedVersion,
	"ErrDegraded":           ErrDegraded,
	"ErrNotPrimary":         ErrNotPrimary,
	"ErrSeqTruncated":       ErrSeqTruncated,
	"ErrStaleTerm":          ErrStaleTerm,
	"ErrReplicaGap":         ErrReplicaGap,
	"ErrNotFollower":        ErrNotFollower,
}

// declaredSentinels parses errors.go for its package-level Err… names.
func declaredSentinels(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "errors.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing errors.go: %v", err)
	}
	var names []string
	for _, d := range f.Decls {
		gen, ok := d.(*ast.GenDecl)
		if !ok || gen.Tok != token.VAR {
			continue
		}
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, n := range vs.Names {
				if strings.HasPrefix(n.Name, "Err") {
					names = append(names, n.Name)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("errors.go declares no sentinels — parse went wrong")
	}
	return names
}

// declaredCodes parses code.go for its Code… constant values.
func declaredCodes(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "code.go", nil, 0)
	if err != nil {
		t.Fatalf("parsing code.go: %v", err)
	}
	codes := map[string]string{}
	for _, d := range f.Decls {
		gen, ok := d.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, n := range vs.Names {
				if !strings.HasPrefix(n.Name, "Code") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatalf("code.go: unquoting %s: %v", lit.Value, err)
				}
				codes[n.Name] = v
			}
		}
	}
	if len(codes) == 0 {
		t.Fatal("code.go declares no codes — parse went wrong")
	}
	return codes
}

func TestCodeTaxonomyComplete(t *testing.T) {
	declared := declaredSentinels(t)
	for _, name := range declared {
		if _, ok := sentinelByName[name]; !ok {
			t.Errorf("errors.go declares %s but sentinelByName here does not: add it (and its Code arm, its Code… const, and the DESIGN.md row)", name)
		}
	}
	if len(sentinelByName) != len(declared) {
		t.Errorf("sentinelByName has %d entries, errors.go declares %d sentinels", len(sentinelByName), len(declared))
	}

	produced := map[string]string{ // code value -> what produces it
		CodeOK:       "nil",
		CodeCanceled: "context.Canceled",
		CodeDeadline: "context.DeadlineExceeded",
		CodeUnknown:  "unclassified errors",
	}
	for name, sentinel := range sentinelByName {
		code := Code(fmt.Errorf("wrapped: %w", sentinel))
		if code == CodeOK || code == CodeUnknown {
			t.Errorf("sentinel %s has no Code(err) mapping (got %q)", name, code)
			continue
		}
		if prev, dup := produced[code]; dup {
			t.Errorf("sentinel %s and %s share wire code %q; codes must be distinct", name, prev, code)
		}
		produced[code] = name
	}

	// Every declared code must be reachable from some input.
	for name, value := range declaredCodes(t) {
		if _, ok := produced[value]; !ok {
			t.Errorf("code.go declares %s = %q but no error produces it", name, value)
		}
	}
}
