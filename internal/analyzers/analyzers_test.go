package analyzers

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSource parses and type-checks a single in-memory file against the
// source importer: no export data exists for the synthetic package itself.
func loadSource(filename, src string) (*Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(f.Name.Name, fset, []*ast.File{f}, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: f.Name.Name,
		Fset:       fset,
		Files:      []*ast.File{f},
		Types:      tpkg,
		Info:       info,
	}, nil
}

// runOn type-checks one in-memory file and runs a single analyzer over it.
func runOn(t *testing.T, a *Analyzer, src string) []Diagnostic {
	t.Helper()
	pkg, err := loadSource("test.go", src)
	if err != nil {
		t.Fatalf("loadSource: %v", err)
	}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

// wantDiags asserts that exactly the diagnostics matching the given
// substrings were produced, in position order.
func wantDiags(t *testing.T, diags []Diagnostic, substrings ...string) {
	t.Helper()
	if len(diags) != len(substrings) {
		var got []string
		for _, d := range diags {
			got = append(got, d.String())
		}
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(substrings), strings.Join(got, "\n"))
	}
	for i, want := range substrings {
		if !strings.Contains(diags[i].String(), want) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i], want)
		}
	}
}

func TestNoAllocFlagsAllocations(t *testing.T) {
	diags := runOn(t, NoAlloc, `package p

//memcnn:noalloc
func hot(dst []int, s string) {
	buf := make([]int, 8)
	_ = buf
	f := func() {}
	f()
	go f()
	lit := []int{1, 2}
	_ = lit
	s2 := s + s
	_ = s2
	b := []byte(s)
	_ = b
}
`)
	wantDiags(t, diags,
		"make allocates in noalloc function hot",
		"closure allocates in noalloc function hot",
		"go statement allocates a goroutine in noalloc function hot",
		"composite literal allocates in noalloc function hot",
		"string concatenation allocates in noalloc function hot",
		"string conversion allocates in noalloc function hot",
	)
}

func TestNoAllocIgnoresUnannotated(t *testing.T) {
	diags := runOn(t, NoAlloc, `package p

func cold() []int {
	return make([]int, 8)
}
`)
	wantDiags(t, diags)
}

func TestNoAllocReturnExemption(t *testing.T) {
	// Allocations syntactically inside a return statement run at most once
	// (the error path), so they are exempt.
	diags := runOn(t, NoAlloc, `package p

import "fmt"

//memcnn:noalloc
func hot(n int) error {
	if n < 0 {
		return fmt.Errorf("bad n %d", n)
	}
	return nil
}
`)
	wantDiags(t, diags)
}

func TestNoAllocFmtOutsideReturn(t *testing.T) {
	diags := runOn(t, NoAlloc, `package p

import "fmt"

//memcnn:noalloc
func hot(n int) error {
	err := fmt.Errorf("bad n %d", n)
	return err
}
`)
	wantDiags(t, diags, "fmt.Errorf allocates in noalloc function hot")
}

func TestCtxFlowBackgroundShadow(t *testing.T) {
	diags := runOn(t, CtxFlow, `package p

import "context"

func withCtx(ctx context.Context) {
	_ = context.Background()
}

func withoutCtx() {
	_ = context.Background()
}
`)
	wantDiags(t, diags, "context.Background shadows the context.Context already available here")
}

func TestCtxFlowDroppedSibling(t *testing.T) {
	diags := runOn(t, CtxFlow, `package p

import "context"

type Exec struct{}

func (Exec) Run()                        {}
func (Exec) RunCtx(ctx context.Context)  {}
func (Exec) Solo()                       {}

func withCtx(ctx context.Context, e Exec) {
	e.Run()  // flagged: RunCtx exists
	e.Solo() // fine: no Ctx sibling
}

func withoutCtx(e Exec) {
	e.Run() // fine: no ctx in scope
}
`)
	wantDiags(t, diags, "Run drops the available context.Context; call RunCtx instead")
}

func TestCtxFlowClosureInheritsCtx(t *testing.T) {
	diags := runOn(t, CtxFlow, `package p

import "context"

func withCtx(ctx context.Context) {
	f := func() {
		_ = context.TODO()
	}
	f()
}
`)
	wantDiags(t, diags, "context.TODO shadows the context.Context already available here")
}

func TestAtomicAlignMisaligned(t *testing.T) {
	diags := runOn(t, AtomicAlign, `package p

import "sync/atomic"

type counters struct {
	flag int32
	n    int64 // offset 4 under 32-bit layout
}

func bump(c *counters) {
	atomic.AddInt64(&c.n, 1)
}
`)
	wantDiags(t, diags, "address of 64-bit field n is not 8-byte aligned on 32-bit targets (offset 4)")
}

func TestAtomicAlignFirstFieldOK(t *testing.T) {
	diags := runOn(t, AtomicAlign, `package p

import "sync/atomic"

type counters struct {
	n    int64
	flag int32
}

func bump(c *counters) {
	atomic.AddInt64(&c.n, 1)
}
`)
	wantDiags(t, diags)
}

func TestAtomicAlignMixedAccess(t *testing.T) {
	diags := runOn(t, AtomicAlign, `package p

import "sync/atomic"

type counters struct {
	n int64
}

func bump(c *counters) {
	atomic.AddInt64(&c.n, 1)
}

func peek(c *counters) int64 {
	return c.n
}
`)
	wantDiags(t, diags, "plain access of field n, which is accessed with 64-bit atomics elsewhere")
}

// TestLoadRepoPackage exercises the production loader (go list -export + gc
// importer) against a real module package and asserts the analyzers run
// clean over the annotated obs hot paths.
func TestLoadRepoPackage(t *testing.T) {
	pkgs, err := Load("../..", "./internal/obs")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "memcnn/internal/obs" {
		t.Fatalf("loaded %d packages, want exactly memcnn/internal/obs", len(pkgs))
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}
