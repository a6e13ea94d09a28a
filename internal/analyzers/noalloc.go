package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// noallocDirective marks a function's doc comment: the function body must
// not heap-allocate.
const noallocDirective = "//memcnn:noalloc"

// NoAlloc forbids heap allocations in functions annotated //memcnn:noalloc.
//
// Flagged constructs: the make/new/append builtins, closures (FuncLit) and
// goroutine launches, composite literals of slice/map (and address-taken)
// kinds, non-constant string concatenation, string<->slice conversions, and
// any call into fmt or errors.  Interface boxing at arbitrary call sites is
// beyond a syntactic pass and is not flagged — the annotation documents the
// checked subset, it does not prove the function allocation-free.
//
// The one exemption: an allocation that is syntactically inside a `return`
// statement executes at most once, on the failing (or final) call, so error
// paths like `return fmt.Errorf(...)` stay legal.  A function that must
// allocate on some path calls an unannotated helper for it (par.Planes'
// fan-out, GemmInto's pack-buffer growth).
var NoAlloc = &Analyzer{
	Name: "noalloc",
	Doc:  "forbid heap allocations in functions marked " + noallocDirective,
	Run:  runNoAlloc,
}

func runNoAlloc(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, noallocDirective) {
				continue
			}
			checkNoAlloc(pass, fn)
		}
	}
}

// hasDirective reports whether a doc comment contains the given directive
// line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if text := strings.TrimSpace(c.Text); text == directive || strings.HasPrefix(text, directive+" ") {
			return true
		}
	}
	return false
}

// noallocWalker carries the per-function state of the allocation scan.
type noallocWalker struct {
	pass      *Pass
	fn        *ast.FuncDecl
	inReturn  int
	goFunLits map[*ast.FuncLit]bool // FuncLits already reported as part of a `go` statement
}

func checkNoAlloc(pass *Pass, fn *ast.FuncDecl) {
	w := &noallocWalker{pass: pass, fn: fn, goFunLits: make(map[*ast.FuncLit]bool)}
	ast.Inspect(fn.Body, w.visit)
}

// report files the finding unless the node sits inside a return statement.
func (w *noallocWalker) report(pos token.Pos, format string, args ...any) {
	if w.inReturn > 0 {
		return
	}
	w.pass.Reportf(pos, format, append(args, w.fn.Name.Name)...)
}

func (w *noallocWalker) visit(n ast.Node) bool {
	if n == nil {
		return true
	}
	// Track return statements: Inspect has no exit hook, so returns are
	// handled by a nested walk that skips the outer traversal.
	if ret, ok := n.(*ast.ReturnStmt); ok {
		w.inReturn++
		for _, res := range ret.Results {
			ast.Inspect(res, w.visit)
		}
		w.inReturn--
		return false
	}
	switch n := n.(type) {
	case *ast.GoStmt:
		w.report(n.Pos(), "go statement allocates a goroutine in noalloc function %s")
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			w.goFunLits[lit] = true
		}
	case *ast.FuncLit:
		if !w.goFunLits[n] {
			w.report(n.Pos(), "closure allocates in noalloc function %s")
		}
	case *ast.CallExpr:
		w.checkCall(n)
	case *ast.CompositeLit:
		switch w.pass.Info.Types[n].Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			w.report(n.Pos(), "composite literal allocates in noalloc function %s")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				w.report(n.Pos(), "address-taken composite literal allocates in noalloc function %s")
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv, ok := w.pass.Info.Types[n]; ok && tv.Value == nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					w.report(n.Pos(), "string concatenation allocates in noalloc function %s")
				}
			}
		}
	}
	return true
}

func (w *noallocWalker) checkCall(call *ast.CallExpr) {
	info := w.pass.Info
	// Builtins make/new/append.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new", "append":
				w.report(call.Pos(), b.Name()+" allocates in noalloc function %s")
			}
			return
		}
	}
	// Calls into fmt or errors: formatting and boxing both allocate.
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				switch pn.Imported().Path() {
				case "fmt", "errors":
					w.report(call.Pos(), pn.Imported().Path()+"."+sel.Sel.Name+" allocates in noalloc function %s")
					return
				}
			}
		}
	}
	// Conversions between string and byte/rune slices copy into fresh
	// storage.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := info.Types[call.Args[0]].Type
		if from == nil {
			return
		}
		fromU := from.Underlying()
		toStr := isString(to)
		fromStr := isString(fromU)
		_, toSlice := to.(*types.Slice)
		_, fromSlice := fromU.(*types.Slice)
		if (toStr && fromSlice) || (toSlice && fromStr) {
			w.report(call.Pos(), "string conversion allocates in noalloc function %s")
		}
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
