// Command dtaintlint enforces five repository-specific contracts that
// go vet cannot check:
//
//  1. unordered-map-range — the determinism contract. Findings, reports,
//     and benchmark tables must be bit-identical across runs and worker
//     counts, so code may not let Go's randomized map iteration order
//     escape. A `for k := range m` over a map is flagged unless the loop
//     is order-insensitive (it only writes keyed entries, accumulates
//     with commutative updates, or deletes) or the surrounding block
//     sorts what the loop collected (the collect-then-sort idiom).
//     Arithmetic updates (+=, -=, *=, /=) of a float or string the
//     function declares do not commute: rounding and concatenation
//     keep the order of the terms.
//
//  2. guarded-obs-call — the nil-safe-handle contract. Every handle in
//     internal/obs (Registry, Tracer, Span, Counter, Gauge, Histogram)
//     and internal/obs/events (Journal, Emitter, Watchdog, Sub) is
//     nil-safe by design: a nil registry hands out live throwaway
//     instruments, a nil tracer produces no-op spans, and a nil emitter
//     swallows events. Wrapping an instrumentation call in
//     `if h != nil { h.Observe(...) }` — or guarding a whole recording
//     function with `if h == nil { return }` — is therefore dead weight
//     that rots into inconsistently-guarded telemetry; the guard must
//     go.
//
//  3. unversioned-serialization — the wire-format contract. Analysis
//     values (internal/symexec, taint, expr, vrange) are persisted only
//     through internal/sumstore's versioned, checksummed wire format;
//     a store written by one build must be a clean cache miss — never a
//     silently-wrong decode — under the next. encoding/gob writes no
//     format version at all and is flagged on import; ad-hoc
//     json/xml/Encode serialization of an analysis type outside
//     internal/sumstore is flagged at the call.
//
//  4. hardcoded-vocab-name — the declarative-vocabulary contract. The
//     taint engine (internal/taint) dispatches sources, sinks,
//     sanitizers, and propagation models from the compiled vocabulary
//     (internal/vocab); a string literal naming a vocabulary function
//     ("strcpy", "system", ...) in engine code is a hard-coded special
//     case that a custom -vocab spec cannot override. Declare the
//     behavior in the vocabulary spec instead.
//
//  5. key-identity — the pointer-identity contract. One analysis
//     builds every expression through one expr.Table, which builds each
//     distinct node once, so inside the analysis packages
//     (internal/symexec, taint, dataflow, sse, alias and sumstore) two
//     expressions are equal exactly when they are one node. Rebuilding
//     that identity out of key strings — indexing a map by a .Key()
//     result, joining two .Key() results into one string, or comparing
//     two .Key() results with ==/!= — spells and hashes strings where a
//     pointer suffices. Key by the node pointer, or a struct of them,
//     instead. Names derived from one expression (a call such as
//     LenSymName(c.Key())) and output (a concatenation passed straight
//     to a call, such as a trace line) are not identity and pass.
//
// Usage:
//
//	dtaintlint [dir ...]        # default: the whole module tree
//
// A deliberate exception is suppressed with a trailing or preceding
// comment `//dtaintlint:ignore <reason>`; the reason is mandatory so
// the waiver is reviewable. Test files and testdata are not linted.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dtaint/internal/vocab"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dtaintlint [dir ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	findings, err := lintTree(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtaintlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dtaintlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// lintTree parses every non-test package under the roots and runs both
// rules, returning findings sorted by position.
func lintTree(roots []string) ([]string, error) {
	fset := token.NewFileSet()
	byDir := map[string][]*ast.File{}
	var dirs []string
	for _, root := range roots {
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			name := info.Name()
			if info.IsDir() {
				if name != "." && name != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			dir := filepath.Dir(path)
			if _, ok := byDir[dir]; !ok {
				dirs = append(dirs, dir)
			}
			byDir[dir] = append(byDir[dir], f)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)

	world := newWorld()
	for _, dir := range dirs {
		world.addPackage(dir, byDir[dir])
	}
	var findings []string
	for _, dir := range dirs {
		findings = append(findings, world.lintPackage(fset, dir, byDir[dir])...)
	}
	sort.Strings(findings)
	return findings, nil
}

// ---------------------------------------------------------------------------
// Syntactic type knowledge. The linter runs without go/types (the module
// has no dependencies and the source importer predates modules), so it
// tracks just enough declared structure to answer two questions: "is
// this expression a map?" and "is this expression an obs handle?".

type varInfo struct {
	isMap      bool
	isObs      bool   // a handle type declared in internal/obs
	structName string // qualified struct type ("pkg.Name") for field lookup
	ordered    bool   // a float or string the function declares: += keeps the order of its terms
}

type pkgInfo struct {
	name     string             // declared package name
	mapTypes map[string]bool    // named types whose underlying type is a map
	obsPkg   bool               // this IS internal/obs or internal/obs/events
	structs  map[string]fields  // struct name -> field types
	globals  map[string]varInfo // package-level vars
	results  map[string]varInfo // single-result function name -> result
}

type fields map[string]varInfo

type world struct {
	pkgs      map[string]*pkgInfo // by directory
	byPkgName map[string]*pkgInfo // by declared name (for qualified lookups)
}

func newWorld() *world {
	return &world{pkgs: map[string]*pkgInfo{}, byPkgName: map[string]*pkgInfo{}}
}

func (w *world) addPackage(dir string, files []*ast.File) {
	p := &pkgInfo{
		mapTypes: map[string]bool{},
		structs:  map[string]fields{},
		globals:  map[string]varInfo{},
		results:  map[string]varInfo{},
	}
	for _, f := range files {
		p.name = f.Name.Name
	}
	p.obsPkg = p.name == "obs" || p.name == "events"
	w.pkgs[dir] = p
	w.byPkgName[p.name] = p

	// Pass 1: named types, so pass 2 can resolve them in field types.
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if _, isMap := ts.Type.(*ast.MapType); isMap {
					p.mapTypes[ts.Name.Name] = true
				}
			}
		}
	}
	// Pass 2: struct fields, package vars, single-result functions.
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if st, ok := s.Type.(*ast.StructType); ok {
							fs := fields{}
							for _, fld := range st.Fields.List {
								vi := w.typeKind(p, fld.Type)
								for _, n := range fld.Names {
									fs[n.Name] = vi
								}
							}
							p.structs[s.Name.Name] = fs
						}
					case *ast.ValueSpec:
						if s.Type != nil {
							vi := w.typeKind(p, s.Type)
							for _, n := range s.Names {
								p.globals[n.Name] = vi
							}
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil && d.Type.Results != nil && len(d.Type.Results.List) == 1 && len(d.Type.Results.List[0].Names) <= 1 {
					p.results[d.Name.Name] = w.typeKind(p, d.Type.Results.List[0].Type)
				}
			}
		}
	}
}

// typeKind classifies a declared type expression.
func (w *world) typeKind(p *pkgInfo, t ast.Expr) varInfo {
	switch x := t.(type) {
	case *ast.MapType:
		return varInfo{isMap: true}
	case *ast.StarExpr:
		return w.typeKind(p, x.X)
	case *ast.ParenExpr:
		return w.typeKind(p, x.X)
	case *ast.Ident:
		vi := varInfo{isMap: p.mapTypes[x.Name], isObs: p.obsPkg && (isObsHandle(x.Name) || isEventsHandle(x.Name))}
		if _, ok := p.structs[x.Name]; ok {
			vi.structName = p.name + "." + x.Name
		}
		return vi
	case *ast.SelectorExpr:
		pkgName, ok := x.X.(*ast.Ident)
		if !ok {
			return varInfo{}
		}
		if pkgName.Name == "obs" && isObsHandle(x.Sel.Name) {
			return varInfo{isObs: true, isMap: x.Sel.Name == "Labels"}
		}
		if pkgName.Name == "events" && isEventsHandle(x.Sel.Name) {
			return varInfo{isObs: true}
		}
		if other, ok := w.byPkgName[pkgName.Name]; ok {
			vi := varInfo{isMap: other.mapTypes[x.Sel.Name]}
			if _, ok := other.structs[x.Sel.Name]; ok {
				vi.structName = other.name + "." + x.Sel.Name
			}
			return vi
		}
	}
	return varInfo{}
}

// isObsHandle reports whether the named internal/obs type is one of the
// nil-safe instrumentation handles.
func isObsHandle(name string) bool {
	switch name {
	case "Registry", "Tracer", "Span", "Counter", "Gauge", "Histogram", "Labels":
		return true
	}
	return false
}

// isEventsHandle reports whether the named internal/obs/events type is
// one of the nil-safe telemetry handles.
func isEventsHandle(name string) bool {
	switch name {
	case "Journal", "Emitter", "Watchdog", "Sub":
		return true
	}
	return false
}

// obsMethods are the instrumentation entry points of the nil-safe
// handles; a nil-guard around a call to one of these is rule 2's target
// even when the receiver's type cannot be resolved syntactically.
var obsMethods = map[string]bool{
	"Inc": true, "Add": true, "Store": true, "Set": true, "Observe": true,
	"Counter": true, "Gauge": true, "Histogram": true, "Snapshot": true,
	"WriteJSON": true, "WritePrometheus": true, "WriteChromeTrace": true,
	"StartSpan": true, "SetAttr": true, "OnSpanStart": true, "OnSpanEnd": true,
	"Emit": true, "Progress": true, "ProgressDecile": true, "WithPath": true,
	"Emitter": true,
}

// ---------------------------------------------------------------------------
// Per-package linting.

func (w *world) lintPackage(fset *token.FileSet, dir string, files []*ast.File) []string {
	p := w.pkgs[dir]
	// internal/sumstore IS the versioned serialization layer; rule 3
	// exempts it.
	allowSer := strings.Contains(filepath.ToSlash(dir), "internal/sumstore")
	// Rule 4 applies only to the taint engine itself.
	taintPkg := strings.Contains(filepath.ToSlash(dir), "internal/taint")
	analysisPkg := analysisScope(dir)
	var out []string
	for _, f := range files {
		importsObs := false
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "internal/obs") {
				importsObs = true
			}
		}
		ignored := directiveLines(fset, f)
		lf := &linter{w: w, p: p, fset: fset, ignored: ignored, importsObs: importsObs}
		if !allowSer {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/gob"` {
					lf.report(imp.Pos(), "unversioned-serialization",
						"encoding/gob writes no format version; persist analysis values through internal/sumstore's versioned wire format (//dtaintlint:ignore <reason> to waive)")
				}
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			env := lf.collectEnv(fd)
			lf.lintBlock(fd.Body, env)
			if !allowSer {
				lf.lintSerialization(fd)
			}
		}
		if taintPkg {
			lf.lintVocabLiterals(f)
		}
		if analysisPkg {
			lf.lintKeyIdentity(f)
		}
		out = append(out, lf.findings...)
	}
	return out
}

// directiveLines returns the lines carrying a //dtaintlint:ignore
// directive; a finding on that line or the next is waived.
func directiveLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//dtaintlint:ignore") {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

type linter struct {
	w          *world
	p          *pkgInfo
	fset       *token.FileSet
	ignored    map[int]bool
	importsObs bool
	findings   []string
}

func (l *linter) report(pos token.Pos, rule, msg string) {
	position := l.fset.Position(pos)
	if l.ignored[position.Line] || l.ignored[position.Line-1] {
		return
	}
	l.findings = append(l.findings, fmt.Sprintf("%s:%d:%d: %s: %s",
		position.Filename, position.Line, position.Column, rule, msg))
}

// collectEnv gathers the variables visible in a function whose map or
// obs nature is syntactically evident: the receiver, parameters, and
// every local declaration or := assignment in the body. The scan is
// flow-insensitive; Go's declare-before-use keeps that honest.
func (l *linter) collectEnv(fd *ast.FuncDecl) map[string]varInfo {
	env := map[string]varInfo{}
	bind := func(fl *ast.FieldList, declares bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			vi := l.w.typeKind(l.p, f.Type)
			vi.ordered = declares && orderedType(f.Type)
			for _, n := range f.Names {
				env[n.Name] = vi
			}
		}
	}
	bind(fd.Recv, false)
	bind(fd.Type.Params, false)
	bind(fd.Type.Results, true)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, n := range vs.Names {
					if vs.Type != nil {
						vi := l.w.typeKind(l.p, vs.Type)
						vi.ordered = orderedType(vs.Type)
						env[n.Name] = vi
					} else if i < len(vs.Values) && orderedValue(vs.Values[i]) {
						env[n.Name] = varInfo{ordered: true}
					}
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE && s.Tok != token.ASSIGN {
				return true
			}
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if vi := l.exprInfo(s.Rhs[i], env); vi != (varInfo{}) {
					env[id.Name] = vi
				} else if s.Tok == token.DEFINE && orderedValue(s.Rhs[i]) {
					env[id.Name] = varInfo{ordered: true}
				}
			}
		}
		return true
	})
	return env
}

// orderedType reports whether a declared type is a float or a string,
// whose += result depends on the order of its terms.
func orderedType(t ast.Expr) bool {
	id, ok := t.(*ast.Ident)
	return ok && (id.Name == "float64" || id.Name == "float32" || id.Name == "string")
}

// orderedValue reports whether an initializer is a float or string
// literal or a conversion to one of those types.
func orderedValue(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return x.Kind == token.FLOAT || x.Kind == token.STRING
	case *ast.UnaryExpr:
		return orderedValue(x.X)
	case *ast.CallExpr:
		return len(x.Args) == 1 && orderedType(x.Fun)
	}
	return false
}

// exprInfo classifies an expression using the collected environment and
// the package's declared structure, following selector chains through
// known struct fields (s.cfg.metrics → server.config.metrics).
func (l *linter) exprInfo(e ast.Expr, env map[string]varInfo) varInfo {
	switch x := e.(type) {
	case *ast.Ident:
		if vi, ok := env[x.Name]; ok {
			return vi
		}
		return l.p.globals[x.Name]
	case *ast.ParenExpr:
		return l.exprInfo(x.X, env)
	case *ast.StarExpr:
		return l.exprInfo(x.X, env)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return l.exprInfo(x.X, env)
		}
	case *ast.CompositeLit:
		if x.Type != nil {
			return l.w.typeKind(l.p, x.Type)
		}
	case *ast.SelectorExpr:
		base := l.exprInfo(x.X, env)
		if base.structName != "" {
			dot := strings.IndexByte(base.structName, '.')
			owner := l.w.byPkgName[base.structName[:dot]]
			if owner != nil {
				if fs, ok := owner.structs[base.structName[dot+1:]]; ok {
					return fs[x.Sel.Name]
				}
			}
			return varInfo{}
		}
		// Package-qualified name: obs.X or another package's global.
		if id, ok := x.X.(*ast.Ident); ok {
			if _, shadowed := env[id.Name]; !shadowed {
				if id.Name == "obs" && strings.HasPrefix(x.Sel.Name, "New") {
					return varInfo{isObs: isObsHandle(strings.TrimPrefix(x.Sel.Name, "New"))}
				}
				if id.Name == "events" {
					if x.Sel.Name == "StartWatchdog" {
						return varInfo{isObs: true}
					}
					if strings.HasPrefix(x.Sel.Name, "New") {
						return varInfo{isObs: isEventsHandle(strings.TrimPrefix(x.Sel.Name, "New"))}
					}
				}
				if other, ok := l.w.byPkgName[id.Name]; ok {
					if vi, ok := other.globals[x.Sel.Name]; ok {
						return vi
					}
					if vi, ok := other.results[x.Sel.Name]; ok {
						return vi
					}
				}
			}
		}
	case *ast.CallExpr:
		switch fn := x.Fun.(type) {
		case *ast.Ident:
			if fn.Name == "make" && len(x.Args) > 0 {
				return l.w.typeKind(l.p, x.Args[0])
			}
			return l.p.results[fn.Name]
		case *ast.SelectorExpr:
			// obs.NewRegistry() and friends, or pkg.Func().
			return l.exprInfo(fn, env)
		}
	}
	return varInfo{}
}

// ---------------------------------------------------------------------------
// Rule 1: unordered map iteration.

// lintBlock walks a block, flagging map ranges that leak iteration
// order and nil-guarded obs calls. Nested blocks are walked with the
// same (flow-insensitive) environment.
func (l *linter) lintBlock(b *ast.BlockStmt, env map[string]varInfo) {
	for i, st := range b.List {
		l.lintStmt(st, b.List[i+1:], env)
	}
}

func (l *linter) lintStmt(st ast.Stmt, rest []ast.Stmt, env map[string]varInfo) {
	switch s := st.(type) {
	case *ast.RangeStmt:
		if l.exprInfo(s.X, env).isMap && !orderInsensitiveBody(s.Body, rangeLocals(s), env) && !sortedAfter(rest) {
			l.report(s.For, "unordered-map-range",
				fmt.Sprintf("iteration order of map %s escapes; sort the keys first or make the loop order-insensitive (//dtaintlint:ignore <reason> to waive)",
					types.ExprString(s.X)))
		}
		l.lintBlock(s.Body, env)
	case *ast.IfStmt:
		l.lintGuardedObs(s, env)
		l.lintBlock(s.Body, env)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			l.lintBlock(e, env)
		case *ast.IfStmt:
			l.lintStmt(e, nil, env)
		}
	case *ast.ForStmt:
		l.lintBlock(s.Body, env)
	case *ast.BlockStmt:
		l.lintBlock(s, env)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			for i, cs := range c.(*ast.CaseClause).Body {
				l.lintStmt(cs, c.(*ast.CaseClause).Body[i+1:], env)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			for i, cs := range c.(*ast.CaseClause).Body {
				l.lintStmt(cs, c.(*ast.CaseClause).Body[i+1:], env)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			for i, cs := range c.(*ast.CommClause).Body {
				l.lintStmt(cs, c.(*ast.CommClause).Body[i+1:], env)
			}
		}
	case *ast.GoStmt:
		l.lintCallBody(s.Call, env)
	case *ast.DeferStmt:
		l.lintCallBody(s.Call, env)
	case *ast.ExprStmt:
		if c, ok := s.X.(*ast.CallExpr); ok {
			l.lintCallBody(c, env)
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			if fl, ok := r.(*ast.FuncLit); ok {
				l.lintBlock(fl.Body, env)
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if fl, ok := r.(*ast.FuncLit); ok {
				l.lintBlock(fl.Body, env)
			}
		}
	}
}

// lintCallBody descends into function-literal arguments (worker bodies
// passed to go/defer or helpers) so their loops are linted too.
func (l *linter) lintCallBody(c *ast.CallExpr, env map[string]varInfo) {
	if fl, ok := c.Fun.(*ast.FuncLit); ok {
		l.lintBlock(fl.Body, env)
	}
	for _, a := range c.Args {
		if fl, ok := a.(*ast.FuncLit); ok {
			l.lintBlock(fl.Body, env)
		}
	}
}

// sortedAfter reports whether a later statement in the same block sorts
// a slice — the collect-then-sort idiom that makes a preceding map
// range deterministic.
func sortedAfter(rest []ast.Stmt) bool {
	for _, st := range rest {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// rangeLocals seeds the loop-local binding set with the range's key and
// value variables; rebinding those between iterations cannot leak order.
func rangeLocals(s *ast.RangeStmt) map[string]bool {
	locals := map[string]bool{}
	for _, e := range []ast.Expr{s.Key, s.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			locals[id.Name] = true
		}
	}
	return locals
}

// orderInsensitiveBody reports whether every statement in the loop body
// commutes across iterations: keyed writes, commutative accumulation,
// rebinding of loop-local variables, deletes, per-entry sorts,
// early-exit returns of constants, and switches whose case bodies all
// commute. locals holds names bound fresh each
// iteration (the range variables and := definitions inside the body).
func orderInsensitiveBody(b *ast.BlockStmt, locals map[string]bool, env map[string]varInfo) bool {
	for _, st := range b.List {
		if !orderInsensitiveStmt(st, locals, env) {
			return false
		}
	}
	return true
}

func orderInsensitiveStmt(st ast.Stmt, locals map[string]bool, env map[string]varInfo) bool {
	switch s := st.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
			for i, lhs := range s.Lhs {
				switch x := lhs.(type) {
				case *ast.IndexExpr:
					// m2[k] = v: keyed by the element, not visit order.
				case *ast.Ident:
					if x.Name == "_" {
						continue
					}
					if s.Tok == token.DEFINE || locals[x.Name] {
						locals[x.Name] = true // fresh or per-iteration binding
						continue
					}
					// x = <constant> is idempotent (found = true).
					if i < len(s.Rhs) && !constantExpr(s.Rhs[i]) {
						return false
					}
				default:
					return false
				}
			}
			return true
		}
		// +=, |=, ... : commutative accumulation, except arithmetic on
		// a float or string the function declares: rounding and
		// concatenation depend on the order of the terms.
		if id, ok := s.Lhs[0].(*ast.Ident); ok && !locals[id.Name] && env[id.Name].ordered {
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				return false
			}
		}
		return true
	case *ast.IncDecStmt:
		return true
	case *ast.DeclStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		c, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		switch fn := c.Fun.(type) {
		case *ast.Ident:
			return fn.Name == "delete"
		case *ast.SelectorExpr:
			// sort.Strings(m[k]) and friends: sorting a keyed entry
			// commutes across iterations.
			if id, ok := fn.X.(*ast.Ident); ok {
				return id.Name == "sort" || id.Name == "slices"
			}
		}
		return false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if !constantExpr(r) {
				return false
			}
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil && !orderInsensitiveStmt(s.Init, locals, env) {
			return false
		}
		if s.Body != nil && !orderInsensitiveBody(s.Body, locals, env) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderInsensitiveBody(e, locals, env)
		case *ast.IfStmt:
			return orderInsensitiveStmt(e, locals, env)
		}
		return false
	case *ast.RangeStmt:
		inner := rangeLocals(s)
		for k := range locals {
			inner[k] = true
		}
		return orderInsensitiveBody(s.Body, inner, env)
	case *ast.ForStmt:
		return orderInsensitiveBody(s.Body, locals, env)
	case *ast.BlockStmt:
		return orderInsensitiveBody(s, locals, env)
	case *ast.SwitchStmt:
		// A switch commutes when every case body does; the tag and
		// case expressions are only read.
		if s.Init != nil && !orderInsensitiveStmt(s.Init, locals, env) {
			return false
		}
		for _, cl := range s.Body.List {
			for _, st := range cl.(*ast.CaseClause).Body {
				if !orderInsensitiveStmt(st, locals, env) {
					return false
				}
			}
		}
		return true
	}
	return false
}

// constantExpr reports whether an expression is a literal constant, so
// assigning or returning it is the same no matter which iteration does.
func constantExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return x.Name == "true" || x.Name == "false" || x.Name == "nil"
	case *ast.UnaryExpr:
		return constantExpr(x.X)
	}
	return false
}

// ---------------------------------------------------------------------------
// Rule 2: nil-guarded obs calls.

// lintGuardedObs flags `if h != nil { h.M(...) }` where h is (or looks
// like) a nil-safe internal/obs handle, and the early-return variant
// `if h == nil { return }` that guards a whole recording function.
func (l *linter) lintGuardedObs(s *ast.IfStmt, env map[string]varInfo) {
	if l.p.obsPkg {
		return // the obs package implements the nil-safety it promises
	}
	l.lintEarlyReturnObsGuard(s, env)
	// The guard's init statement can bind the handle (if reg := x; reg != nil).
	if s.Init != nil {
		if as, ok := s.Init.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			env = copyEnv(env)
			for i, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if vi := l.exprInfo(as.Rhs[i], env); vi != (varInfo{}) {
						env[id.Name] = vi
					}
				}
			}
		}
	}
	guarded := map[string]bool{}
	ast.Inspect(s.Cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return true
		}
		if isNil(be.Y) {
			guarded[types.ExprString(be.X)] = true
		} else if isNil(be.X) {
			guarded[types.ExprString(be.Y)] = true
		}
		return true
	})
	if len(guarded) == 0 {
		return
	}
	ast.Inspect(s.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := types.ExprString(sel.X)
		if !guarded[recv] {
			return true
		}
		vi := l.exprInfo(sel.X, env)
		if vi.isObs || (l.importsObs && obsMethods[sel.Sel.Name]) {
			l.report(call.Pos(), "guarded-obs-call",
				fmt.Sprintf("%s is nil-checked before calling %s.%s, but obs handles are nil-safe by contract; drop the guard",
					recv, recv, sel.Sel.Name))
		}
		return true
	})
}

// lintEarlyReturnObsGuard flags `if h == nil { return }` where h is a
// nil-safe obs handle and the body is a single bare return: the only
// purpose of such a guard is protecting subsequent instrumentation
// calls, which are nil-safe by contract. Guards that return a value or
// do other work are left alone (they may be skipping real computation);
// a deliberate skip of expensive attribute construction is waived with
// the usual //dtaintlint:ignore directive.
func (l *linter) lintEarlyReturnObsGuard(s *ast.IfStmt, env map[string]varInfo) {
	be, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.EQL {
		return
	}
	var handle ast.Expr
	switch {
	case isNil(be.Y):
		handle = be.X
	case isNil(be.X):
		handle = be.Y
	default:
		return
	}
	if len(s.Body.List) != 1 {
		return
	}
	ret, ok := s.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 0 {
		return
	}
	if !l.exprInfo(handle, env).isObs {
		return
	}
	name := types.ExprString(handle)
	l.report(s.If, "guarded-obs-call",
		fmt.Sprintf("early return when %s is nil, but obs handles are nil-safe by contract; drop the guard", name))
}

// ---------------------------------------------------------------------------
// Rule 4: hard-coded vocabulary names in the taint engine.

var vocabNames map[string]bool

// defaultVocabNames is the set of function names the embedded default
// vocabulary declares — the literals rule 4 hunts for in engine code.
func defaultVocabNames() map[string]bool {
	if vocabNames == nil {
		spec := vocab.Default()
		vocabNames = make(map[string]bool, len(spec.Functions))
		for i := range spec.Functions {
			vocabNames[spec.Functions[i].Name] = true
		}
	}
	return vocabNames
}

// lintVocabLiterals flags string literals naming a default-vocabulary
// function inside internal/taint. The engine must dispatch on the
// compiled vocabulary, never on a spelled-out function name — a
// hard-coded "strcpy" is a special case no custom -vocab spec can
// override. Import paths are exempt; waivers use the usual directive.
func (l *linter) lintVocabLiterals(f *ast.File) {
	names := defaultVocabNames()
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.IMPORT {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !names[s] {
				return true
			}
			l.report(lit.Pos(), "hardcoded-vocab-name",
				fmt.Sprintf("string literal %q names a vocabulary function; dispatch on the compiled vocabulary instead of the name (//dtaintlint:ignore <reason> to waive)", s))
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// Rule 5: identity spelled out of .Key() strings in the analysis packages.

// analysisScope reports whether rule 5 applies to a package directory:
// the packages whose expressions are nodes of one analysis's table.
func analysisScope(dir string) bool {
	dir = filepath.ToSlash(dir)
	for _, pkg := range []string{"symexec", "taint", "dataflow", "sse", "alias", "sumstore"} {
		if strings.Contains(dir, "internal/"+pkg) {
			return true
		}
	}
	return false
}

// lintKeyIdentity flags expression identity rebuilt out of key strings:
// a map indexed by a .Key() result or a concatenation holding one, two
// .Key() results compared with == or !=, and a concatenation joining
// two .Key() results.
func (l *linter) lintKeyIdentity(f *ast.File) {
	const waive = " (//dtaintlint:ignore <reason> to waive)"
	// skip holds the concatenations not checked on their own: operands
	// of a larger one, map indexes (checked as such) and call arguments
	// (output, such as a trace line).
	skip := map[ast.Expr]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			for _, a := range x.Args {
				skip[ast.Unparen(a)] = true
			}
		case *ast.IndexExpr:
			skip[ast.Unparen(x.Index)] = true
			if keyTerms(x.Index) > 0 {
				l.report(x.Index.Pos(), "key-identity",
					"map indexed by a .Key() spelling; key by the node pointer"+waive)
			}
		case *ast.BinaryExpr:
			switch {
			case (x.Op == token.EQL || x.Op == token.NEQ) && isKeyCall(x.X) && isKeyCall(x.Y):
				l.report(x.OpPos, "key-identity",
					"expressions compared through .Key() spellings; compare the node pointers with =="+waive)
			case x.Op == token.ADD:
				skip[ast.Unparen(x.X)], skip[ast.Unparen(x.Y)] = true, true
				if !skip[x] && keyTerms(x) >= 2 {
					l.report(x.Pos(), "key-identity",
						"two .Key() spellings joined into one identity; key by a struct of node pointers"+waive)
				}
			}
		}
		return true
	})
}

// keyTerms counts the .Key() calls a string concatenation joins
// directly; calls nested in other calls (derived names) do not count.
func keyTerms(e ast.Expr) int {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return keyTerms(x.X)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			return keyTerms(x.X) + keyTerms(x.Y)
		}
	default:
		if isKeyCall(e) {
			return 1
		}
	}
	return 0
}

// isKeyCall reports whether e is a zero-argument .Key() call.
func isKeyCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Key"
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func copyEnv(env map[string]varInfo) map[string]varInfo {
	out := make(map[string]varInfo, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Rule 3: unversioned serialization of analysis types.

// analysisTypePkgs are the packages whose values flow through the
// summary store's versioned wire format; persisting them any other way
// is rule 3's target.
var analysisTypePkgs = map[string]bool{
	"symexec": true, "taint": true, "expr": true, "vrange": true,
}

// analysisTypeName returns the qualified name ("taint.Finding") when the
// type expression names an analysis-package type, looking through
// pointers, slices, arrays, and maps.
func analysisTypeName(t ast.Expr) string {
	switch x := t.(type) {
	case *ast.StarExpr:
		return analysisTypeName(x.X)
	case *ast.ParenExpr:
		return analysisTypeName(x.X)
	case *ast.ArrayType:
		return analysisTypeName(x.Elt)
	case *ast.MapType:
		if n := analysisTypeName(x.Value); n != "" {
			return n
		}
		return analysisTypeName(x.Key)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok && analysisTypePkgs[id.Name] {
			return id.Name + "." + x.Sel.Name
		}
	}
	return ""
}

// lintSerialization flags Marshal/Encode calls whose argument is an
// analysis-package value. Analysis types are tracked through their
// declared spellings (receiver, parameters, results, var declarations,
// and := from composite literals); the scan is flow-insensitive like
// the rest of the linter.
func (l *linter) lintSerialization(fd *ast.FuncDecl) {
	env := map[string]string{}
	bind := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			if n := analysisTypeName(f.Type); n != "" {
				for _, nm := range f.Names {
					env[nm.Name] = n
				}
			}
		}
	}
	bind(fd.Recv)
	bind(fd.Type.Params)
	bind(fd.Type.Results)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			gd, ok := s.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil {
					continue
				}
				if name := analysisTypeName(vs.Type); name != "" {
					for _, nm := range vs.Names {
						env[nm.Name] = name
					}
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if name := serializedArgType(s.Rhs[i], env); name != "" {
					env[id.Name] = name
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			l.checkSerializeCall(call, env)
		}
		return true
	})
}

// checkSerializeCall reports a serialization call whose first argument
// is an analysis-package value: json.Marshal/MarshalIndent and
// xml.Marshal at package level, and Encode/EncodeValue on any encoder
// value (json.NewEncoder, gob.NewEncoder, ...).
func (l *linter) checkSerializeCall(call *ast.CallExpr, env map[string]string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	switch sel.Sel.Name {
	case "Marshal", "MarshalIndent":
		id, ok := sel.X.(*ast.Ident)
		if !ok || (id.Name != "json" && id.Name != "xml") {
			return
		}
	case "Encode", "EncodeValue":
	default:
		return
	}
	if name := serializedArgType(call.Args[0], env); name != "" {
		l.report(call.Pos(), "unversioned-serialization",
			fmt.Sprintf("ad-hoc serialization of analysis type %s; persist analysis values through internal/sumstore's versioned wire format (//dtaintlint:ignore <reason> to waive)", name))
	}
}

// serializedArgType resolves a serialization argument to a qualified
// analysis type name, or "" when it is not one.
func serializedArgType(e ast.Expr, env map[string]string) string {
	switch x := e.(type) {
	case *ast.Ident:
		return env[x.Name]
	case *ast.ParenExpr:
		return serializedArgType(x.X, env)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return serializedArgType(x.X, env)
		}
	case *ast.CompositeLit:
		if x.Type != nil {
			return analysisTypeName(x.Type)
		}
	}
	return ""
}
