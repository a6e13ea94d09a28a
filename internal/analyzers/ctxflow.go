package analyzers

import (
	"go/ast"
	"go/types"
)

// CtxFlow flags call sites that drop an available context.Context.
//
// Inside any function (declaration or literal) that has a context.Context
// parameter in scope, two shapes lose the caller's cancellation and
// deadline:
//
//   - calling a method whose receiver also offers a Ctx-suffixed variant
//     (Executor.RunInto vs RunIntoCtx, train.Executor.Step vs StepCtx):
//     the context-less form silently runs the request to completion even
//     after the caller gave up;
//   - minting a fresh context.Background() or context.TODO(): the new
//     context shadows the one the caller handed in.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "flag calls that drop or shadow an available context.Context",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCtxFlow(pass, fn.Body, hasCtxParam(pass, fn.Type))
		}
	}
}

// checkCtxFlow walks a function body knowing whether a context.Context is in
// scope; nested function literals re-derive availability (their own ctx
// parameter, or the captured outer one).
func checkCtxFlow(pass *Pass, body ast.Node, ctxAvailable bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCtxFlow(pass, n.Body, ctxAvailable || hasCtxParam(pass, n.Type))
			return false
		case *ast.CallExpr:
			if !ctxAvailable {
				return true
			}
			sel, ok := unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// context.Background() / context.TODO()
			if id, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" {
					if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
						pass.Reportf(n.Pos(), "context.%s shadows the context.Context already available here", sel.Sel.Name)
					}
					return true
				}
			}
			// Method with a Ctx-suffixed sibling on the same receiver.
			s := pass.Info.Selections[sel]
			if s == nil || s.Kind() != types.MethodVal {
				return true
			}
			name := sel.Sel.Name
			if obj, _, _ := types.LookupFieldOrMethod(s.Recv(), true, pass.Pkg, name+"Ctx"); obj != nil {
				if _, isFunc := obj.(*types.Func); isFunc {
					pass.Reportf(n.Pos(), "%s drops the available context.Context; call %sCtx instead", name, name)
				}
			}
		}
		return true
	})
}

// hasCtxParam reports whether the function type declares a context.Context
// parameter.
func hasCtxParam(pass *Pass, ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
