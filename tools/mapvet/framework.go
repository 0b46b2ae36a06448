// A minimal go/analysis-style framework, self-contained on the standard
// library.
//
// The real golang.org/x/tools/go/analysis machinery is the natural host for
// these checkers, but this repository builds with the standard library only,
// so mapvet carries the small subset it needs: a package loader driven by
// `go list -json`, type checking through the stdlib source importer, an
// Analyzer value with a Run(*Pass) hook, and positional diagnostics. The
// shape deliberately mirrors go/analysis (Analyzer.Name/Doc/Run,
// Pass.Reportf) so the analyzers could migrate to a multichecker with
// mechanical edits if the dependency ever becomes available.

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one mapvet checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description printed by -help.
	Doc string
	// Applies reports whether the analyzer's invariant is in force for the
	// package with the given import path. The driver consults it; the test
	// harness bypasses it (fixtures live outside the scoped packages).
	Applies func(importPath string) bool
	// Run inspects the package and reports findings through pass.Reportf.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Msg      string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Msg, d.Analyzer)
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// listPackages enumerates the non-test Go files of the packages matching
// patterns, resolved by the go command in dir.
func listPackages(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// checkedPackage is one parsed and type-checked package.
type checkedPackage struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// newInfo allocates the types.Info maps the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// loader parses and type-checks packages with a shared file set and source
// importer, so stdlib dependencies are checked once per process.
type loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// load parses and type-checks the listed package. Parse errors are fatal;
// type errors are returned alongside the (partially checked) package so the
// caller can decide — analyzed repositories are expected to be compilable,
// fixtures always are.
func (l *loader) load(importPath, dir string, fileNames []string) (*checkedPackage, []error, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, fmt.Errorf("parsing %s: %v", name, err)
		}
		files = append(files, f)
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := newInfo()
	pkg, _ := conf.Check(importPath, l.fset, files, info) // errors collected above
	return &checkedPackage{
		ImportPath: importPath,
		Fset:       l.fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}, typeErrs, nil
}

// runAnalyzer applies one analyzer to one checked package.
func runAnalyzer(a *Analyzer, cp *checkedPackage, diags *[]Diagnostic) {
	a.Run(&Pass{
		Analyzer: a,
		Fset:     cp.Fset,
		Files:    cp.Files,
		Pkg:      cp.Pkg,
		Info:     cp.Info,
		diags:    diags,
	})
}

// sortDiagnostics orders findings by file, line, column, analyzer, message.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Msg < b.Msg
	})
}

// --- shared AST/type helpers used by several analyzers ---

// calleeFunc resolves the callee of call to a *types.Func, or nil when the
// callee is not a known function or method (e.g. a func-typed variable, a
// conversion, or a builtin).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// pkgFunc returns (pkgPath, name) of the package-level function call invokes,
// or ok=false for methods and non-function callees.
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	sig, sok := fn.Type().(*types.Signature)
	if !sok || sig.Recv() != nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// namedType returns the fully qualified name ("sync.WaitGroup") of t after
// stripping pointers, or "" when t is not a named type.
func namedType(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// scopedTo builds an Applies predicate matching any of the given import
// paths exactly.
func scopedTo(paths ...string) func(string) bool {
	set := make(map[string]bool, len(paths))
	for _, p := range paths {
		set[p] = true
	}
	return func(importPath string) bool { return set[importPath] }
}

// enclosingFuncBody returns the body of the innermost function declaration
// or literal in stack (outermost-to-innermost node path), or nil.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncDecl:
			return n.Body
		case *ast.FuncLit:
			return n.Body
		}
	}
	return nil
}

// walkWithStack traverses the file like ast.Inspect but hands the visitor
// the path of ancestor nodes (excluding n itself).
func walkWithStack(file *ast.File, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			// f(nil) arrives only after a true return, so push and pop
			// stay symmetric.
			stack = append(stack, n)
		}
		return descend
	})
}

// lineDirectives collects "//mapvet:<verb> <reason>" directive comments,
// keyed by the line they end on, so an annotation may sit on the flagged
// line itself or on the line directly above it.
func lineDirectives(fset *token.FileSet, file *ast.File, verb string) map[int]string {
	prefix := "//mapvet:" + verb
	out := make(map[int]string)
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, prefix))
			out[fset.Position(c.End()).Line] = reason
		}
	}
	return out
}

// directiveFor looks up a directive on the node's line or the line above.
func directiveFor(fset *token.FileSet, directives map[int]string, pos token.Pos) (string, bool) {
	line := fset.Position(pos).Line
	if r, ok := directives[line]; ok {
		return r, true
	}
	if r, ok := directives[line-1]; ok {
		return r, true
	}
	return "", false
}
