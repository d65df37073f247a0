package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"path/filepath"
	"strings"
)

// The errwrap analyzer keeps error chains intact so the facade's sentinel
// errors (ErrReadOnly, ErrUnknownObject, ErrDegraded, …) stay observable
// through errors.Is:
//
//  1. A fmt.Errorf whose operand is an error must format it with %w —
//     %v/%s flatten the chain and break errors.Is at the API.
//  2. In the facade package (the module root), new error values may only
//     be minted in errors.go: everywhere else a failure either wraps a
//     sentinel or propagates an underlying error, so every public
//     failure mode stays enumerable in one file.

// ErrwrapAnalyzer checks error wrapping discipline.
var ErrwrapAnalyzer = &Analyzer{
	Name:       "errwrap",
	Doc:        "fmt.Errorf error operands must use %w; facade errors are sentinel-based",
	RunPackage: runErrwrap,
}

func runErrwrap(prog *Program, pkg *Package, report func(Diagnostic)) {
	facade := isFacadePackage(pkg)
	for _, f := range pkg.Files {
		file := prog.Fset.Position(f.Pos()).Filename
		inErrorsFile := filepath.Base(file) == "errors.go"
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fullNameOf(pkg.Info, call) {
			case "fmt.Errorf":
				checkErrorf(pkg, call, report)
			case "errors.New":
				if facade && !inErrorsFile {
					report(Diagnostic{Pos: call.Pos(), Message: "facade errors must be declared in errors.go " +
						"(as sentinels) or wrap one with fmt.Errorf(\"…: %w\", Err…)"})
				}
			}
			return true
		})
	}
}

// isFacadePackage reports the module root package (import path without a
// slash beyond the module name — here, the package with no "/internal/",
// "/cmd/" or "/examples/" segment and a Dir equal to the module root is
// simply the one whose import path contains no slash-separated subpath;
// for this repo that is "sgmldb").
func isFacadePackage(pkg *Package) bool {
	return !strings.Contains(pkg.ImportPath, "/")
}

// fullNameOf renders pkg.Func for a direct package-level call.
func fullNameOf(info *types.Info, call *ast.CallExpr) string {
	fn := calleeOf(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// checkErrorf verifies that every error-typed operand of fmt.Errorf is
// formatted with %w.
func checkErrorf(pkg *Package, call *ast.CallExpr, report func(Diagnostic)) {
	if len(call.Args) < 2 {
		return
	}
	tv, ok := pkg.Info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	verbs := formatVerbs(constant.StringVal(tv.Value))
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for i, verb := range verbs {
		argIndex := 1 + i
		if argIndex >= len(call.Args) {
			break // argument-count mismatches are vet's business
		}
		argType := pkg.Info.TypeOf(call.Args[argIndex])
		if argType == nil || !types.Implements(argType, errorIface) {
			continue
		}
		if verb != 'w' {
			report(Diagnostic{Pos: call.Args[argIndex].Pos(), Message: fmt.Sprintf(
				"fmt.Errorf formats an error operand with %%%c: use %%w so errors.Is/As see the chain", verb)})
		}
	}
}

// formatVerbs returns the verb letter for each consumed argument, in
// order; '*' width/precision arguments consume a slot and appear as '*'.
func formatVerbs(format string) []rune {
	var verbs []rune
	rs := []rune(format)
	for i := 0; i < len(rs); i++ {
		if rs[i] != '%' {
			continue
		}
		i++
		if i < len(rs) && rs[i] == '%' {
			continue
		}
		for i < len(rs) {
			c := rs[i]
			if c == '*' {
				verbs = append(verbs, '*')
				i++
				continue
			}
			if strings.ContainsRune("+-# 0.123456789[]", c) {
				i++
				continue
			}
			verbs = append(verbs, c)
			break
		}
	}
	return verbs
}
