// Package analyzers implements the repository's custom static-analysis
// passes and the minimal go/analysis-style framework they run on.
//
// The framework is deliberately self-contained: it loads packages through
// `go list -deps -export -json` and type-checks them against the compiler's
// export data (go/importer), so it needs nothing beyond the standard library
// and the Go toolchain already required to build the repository.  The
// cmd/memcnnvet multichecker drives it in CI.
//
// Three passes machine-check contracts the runtime's hot paths rely on:
//
//   - noalloc: functions whose doc comment ends in a //memcnn:noalloc
//     directive must not heap-allocate.  The pass flags make/new/append,
//     closures and goroutine launches, composite literals, string
//     concatenation and conversions, and calls into fmt/errors.  One
//     escape hatch keeps the annotation honest rather than aspirational:
//     an allocation that is a direct operand of a `return` statement is
//     exempt (it runs at most once, on the failing call, never in steady
//     state).
//   - ctxflow: inside a function that has a context.Context available, the
//     pass flags calls that drop it — invoking a method like RunInto or
//     Step on a receiver that also offers the Ctx-suffixed variant, or
//     minting a fresh context.Background()/TODO().
//   - atomicalign: 64-bit sync/atomic calls on struct fields must stay
//     correct on 32-bit targets, so the pass recomputes each accessed
//     field's offset under 32-bit struct layout and flags any that is not
//     8-byte aligned; it also flags plain (non-atomic) reads or writes of
//     fields the package elsewhere accesses atomically.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding the way compilers do: file:line:col: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at the given position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one static-analysis pass.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer the multichecker runs, in execution order.
func All() []*Analyzer {
	return []*Analyzer{NoAlloc, CtxFlow, AtomicAlign}
}

// Run applies the analyzers to every loaded package and returns the combined
// findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// unparen strips any number of enclosing parentheses (ast.Unparen needs a
// go1.22 language level the module does not yet declare).
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
