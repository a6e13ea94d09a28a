package memcnn_test

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"memcnn/internal/analyzers"
)

// surfaceAllowlist names the declarations under internal/ that no non-test
// file reaches and that stay anyway, one reason each.  An entry is either
// called by a test of a package other than its own, or is one of
// FaultDevice's chaos controls.  A helper only its own package's tests call
// belongs in that package's _test.go instead of here.
var surfaceAllowlist = map[string]string{
	"tensor.AllClose":                 "comparison helper of the kernels, layers and network tests",
	"tensor.Sequential":               "position-coded fill of the kernels tests",
	"tensor.Tensor.Fill":              "constant fill of the kernels tests",
	"tensor.Shape.Coord":              "offset-to-coordinate map of the kernels tests' At/Set oracles",
	"runtime.FaultDevice.Kill":        "chaos control: the replica chaos tests kill a device mid-run",
	"runtime.FaultDevice.Revive":      "chaos control: the replica chaos tests bring a killed device back",
	"runtime.FaultDevice.Dead":        "chaos control: the replica chaos tests read the kill switch back",
	"runtime.FaultDevice.FaultCounts": "chaos control: the replica chaos tests assert the exact injected-fault counters",
	"obs.Recorder.Snapshot":           "span read-back of the runtime and train tests that check what an instrumented run records",
}

// implicitMethods are called by the standard library through an interface,
// never by name in this repository.
var implicitMethods = map[string]bool{"String": true, "Error": true, "ServeHTTP": true}

// decl is one package-level declaration of a non-test file: a function, a
// method, a type, or one name of a const or var group.
type decl struct {
	id         string          // objectID of what it declares
	key        string          // "pkg.Name" or "pkg.Recv.Name", as the allowlist writes it
	recv       string          // a method's receiver type, by objectID
	name       string          // the declared identifier
	pos        string          // file:line
	internal   bool            // declared under internal/
	root       bool            // a main or init function
	uses       map[string]bool // objectIDs of the declarations its definition uses
	ifaceCalls map[string]bool // names of the interface methods it selects
	live       bool
}

// TestSurfaceFollowsCallers type-checks every non-test Go file of the
// repository (the benchmark/ module included), marks what is reachable from
// the main and init functions, and fails on a declaration under internal/
// that nothing live uses: code that only tests reach is either an oracle,
// which lives in a _test.go file, or dead.  Names resolve by type: a
// function, type, constant or variable is live when live code uses that
// object; a method when live code selects it on its own type, or when its
// receiver type is live and live code selects an interface method of the
// same name.
func TestSurfaceFollowsCallers(t *testing.T) {
	base, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	var decls []*decl
	for _, dir := range []string{".", "benchmark"} {
		pkgs, err := analyzers.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			decls = append(decls, pkgDecls(base, pkg)...)
		}
	}
	byID := map[string]*decl{}
	methods := map[string][]*decl{} // by receiver type
	for _, d := range decls {
		byID[d.id] = d
		if d.recv != "" {
			methods[d.recv] = append(methods[d.recv], d)
		}
	}

	called := map[string]bool{} // interface methods live code selects
	var work []*decl
	var mark func(d *decl)
	mark = func(d *decl) {
		if d == nil || d.live {
			return
		}
		d.live = true
		work = append(work, d)
		for _, m := range methods[d.id] {
			if implicitMethods[m.name] || called[m.name] {
				mark(m)
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			from := work[len(work)-1]
			work = work[:len(work)-1]
			for id := range from.uses {
				mark(byID[id])
			}
			for name := range from.ifaceCalls {
				if called[name] {
					continue
				}
				called[name] = true
				for _, d := range decls {
					if d.name == name && d.recv != "" && byID[d.recv].live {
						mark(d)
					}
				}
			}
		}
	}
	for _, d := range decls {
		if d.root {
			mark(d)
		}
	}
	drain()

	// What an allowlisted declaration uses is reachable from a sanctioned
	// caller, so the entries are roots of a second pass; one the first pass
	// already reached no longer needs its entry.
	allowed := map[string]bool{}
	for _, d := range decls {
		if _, ok := surfaceAllowlist[d.key]; ok && d.internal {
			allowed[d.key] = true
			if d.live {
				t.Errorf("allowlist entry %s is used by non-test code at %s: remove the entry", d.key, d.pos)
			}
			mark(d)
		}
	}
	drain()
	for key := range surfaceAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %s names no declaration under internal/: remove it", key)
		}
	}
	if len(surfaceAllowlist) > 15 {
		t.Errorf("allowlist has %d entries, at most 15", len(surfaceAllowlist))
	}

	var dead []string
	for _, d := range decls {
		if !d.live && d.internal {
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s is used by no non-test code: delete it, move it into a _test.go file, or allowlist it with a reason", line)
	}
}

// pkgDecls lists the package-level declarations of one type-checked package
// with what each one's definition uses.
func pkgDecls(base string, pkg *analyzers.Package) []*decl {
	var decls []*decl
	add := func(ident *ast.Ident, node ast.Node) {
		obj := pkg.Info.Defs[ident]
		id, root := objectID(obj), false
		switch {
		case ident.Name == "init" && !isMethod(obj):
			// init functions are in no scope: nothing can name them.
			id, root = pkg.ImportPath+".init", true
		case ident.Name == "main" && pkg.Types.Name() == "main":
			root = true
		}
		if id == "" {
			return
		}
		d := &decl{
			id:         id,
			key:        pkg.Types.Name() + strings.TrimPrefix(id, pkg.ImportPath),
			name:       ident.Name,
			root:       root,
			internal:   strings.HasPrefix(pkg.ImportPath, "memcnn/internal/"),
			uses:       map[string]bool{},
			ifaceCalls: map[string]bool{},
		}
		if isMethod(obj) {
			d.recv = strings.TrimSuffix(id, "."+ident.Name)
		}
		p := pkg.Fset.Position(ident.Pos())
		if rel, err := filepath.Rel(base, p.Filename); err == nil {
			p.Filename = rel
		}
		d.pos = filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line)
		// A constant that repeats its group's last value names no type, but
		// has one.
		if _, ok := obj.(*types.Const); ok {
			if named, ok := obj.Type().(*types.Named); ok {
				d.uses[objectID(named.Obj())] = true
			}
		}
		ast.Inspect(node, func(n ast.Node) bool {
			ident, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			used := pkg.Info.Uses[ident]
			if isMethod(used) && types.IsInterface(used.Type().(*types.Signature).Recv().Type()) {
				d.ifaceCalls[used.Name()] = true
			} else if uid := objectID(used); uid != "" {
				d.uses[uid] = true
			}
			return true
		})
		decls = append(decls, d)
	}
	for _, file := range pkg.Files {
		for _, top := range file.Decls {
			switch top := top.(type) {
			case *ast.FuncDecl:
				add(top.Name, top)
			case *ast.GenDecl:
				for _, spec := range top.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, spec)
						}
					}
				}
			}
		}
	}
	return decls
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// objectID names a package-level object or a method of a named type the same
// way whether the object was type-checked from source or imported from export
// data ("path.Name" or "path.Recv.Name"); anything else gets "".
func objectID(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if isMethod(obj) {
		recv := obj.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok {
			return ""
		}
		return path + "." + named.Obj().Name() + "." + obj.Name()
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return path + "." + obj.Name()
}
