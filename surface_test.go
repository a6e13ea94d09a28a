package memcnn_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
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
	"tensor.Layouts":                  "layout sweep of the kernels and layers tests",
	"runtime.FaultDevice.Kill":        "chaos control: the replica chaos tests kill a device mid-run",
	"runtime.FaultDevice.Revive":      "chaos control: the replica chaos tests bring a killed device back",
	"runtime.FaultDevice.Dead":        "chaos control: the replica chaos tests read the kill switch back",
	"runtime.FaultDevice.FaultCounts": "chaos control: the replica chaos tests assert the exact injected-fault counters",
	"verify.Sharded":                  "checker of Shard's output: the runtime tests run it over every cut of every network",
}

// decl is one package-level declaration of a non-test file: a function, a
// method, a type, or one name of a const or var group.
type decl struct {
	dir     string          // directory relative to the repository root
	key     string          // "pkg.Name" or "pkg.Recv.Name"
	name    string          // the identifier other code would write
	recv    string          // a method's receiver type
	pos     string          // file:line
	idents  map[string]bool // every identifier its definition mentions
	imports map[string]bool // directories of the module its file imports
	named   bool            // a method some live code mentions by name
	live    bool
}

// implicitMethods are called by the standard library through an interface,
// never by name in this repository.
var implicitMethods = map[string]bool{"String": true, "Error": true, "ServeHTTP": true}

// TestSurfaceFollowsCallers parses every non-test Go file of the repository
// (benchmark/ included), marks what is reachable by name from the main and
// init functions, and fails on a declaration under internal/ that nothing
// live names: code that only tests reach is either an oracle, which lives in
// a _test.go file, or dead.  Matching is by identifier, not by type, so it
// errs towards keeping: a function, type, constant or variable is live when a
// live declaration of its package, or of a file importing its package,
// mentions its name; a method when its receiver type is live and anything
// live mentions its name.
func TestSurfaceFollowsCallers(t *testing.T) {
	decls := parseDecls(t)
	byName := map[string][]*decl{}
	types := map[string]*decl{}
	methods := map[*decl][]*decl{}
	for _, d := range decls {
		byName[d.name] = append(byName[d.name], d)
		if d.recv == "" {
			types[d.dir+"."+d.name] = d
		}
	}
	for _, d := range decls {
		if d.recv != "" {
			methods[types[d.dir+"."+d.recv]] = append(methods[types[d.dir+"."+d.recv]], d)
			d.named = implicitMethods[d.name]
		}
	}
	var work []*decl
	var mark func(d *decl)
	mark = func(d *decl) {
		if d.live {
			return
		}
		d.live = true
		work = append(work, d)
		for _, m := range methods[d] {
			if m.named {
				mark(m)
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			from := work[len(work)-1]
			work = work[:len(work)-1]
			for name := range from.idents {
				for _, d := range byName[name] {
					switch {
					case d == from:
					case d.recv != "":
						d.named = true
						if types[d.dir+"."+d.recv].live {
							mark(d)
						}
					case d.dir == from.dir || from.imports[d.dir]:
						mark(d)
					}
				}
			}
		}
	}
	for _, d := range decls {
		if d.recv == "" && (d.name == "main" || d.name == "init" || d.name == "_") {
			mark(d)
		}
	}
	drain()

	// What an allowlisted declaration uses is reachable from a sanctioned
	// caller, so the entries are roots of a second pass; one the first pass
	// already reached no longer needs its entry.
	allowed := map[string]bool{}
	for _, d := range decls {
		if _, ok := surfaceAllowlist[d.key]; ok && strings.HasPrefix(d.dir, "internal/") {
			allowed[d.key] = true
			if d.live {
				t.Errorf("allowlist entry %s is named by non-test code at %s: remove the entry", d.key, d.pos)
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
		if !d.live && strings.HasPrefix(d.dir, "internal/") {
			dead = append(dead, d.pos+": "+d.key)
		}
	}
	sort.Strings(dead)
	for _, line := range dead {
		t.Errorf("%s is named by no non-test code: delete it, move it into a _test.go file, or allowlist it with a reason", line)
	}
}

func parseDecls(t *testing.T) []*decl {
	t.Helper()
	const module = "memcnn/"
	fset := token.NewFileSet()
	var decls []*decl
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]bool{}
		for _, imp := range file.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, module) {
				imports[strings.TrimPrefix(p, module)] = true
			}
		}
		add := func(name, recv string, nodes ...ast.Node) {
			d := &decl{dir: dir, name: name, recv: recv, imports: imports, idents: map[string]bool{}}
			d.key = file.Name.Name + "." + name
			if recv != "" {
				d.key = file.Name.Name + "." + recv + "." + name
			}
			p := fset.Position(nodes[0].Pos())
			d.pos = filepath.ToSlash(p.Filename) + ":" + strconv.Itoa(p.Line)
			for _, node := range nodes {
				ast.Inspect(node, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						d.idents[id.Name] = true
					}
					return true
				})
			}
			decls = append(decls, d)
		}
		for _, top := range file.Decls {
			switch top := top.(type) {
			case *ast.FuncDecl:
				recv := ""
				if top.Recv != nil {
					recv = receiverName(top.Recv.List[0].Type)
				}
				add(top.Name.Name, recv, top)
			case *ast.GenDecl:
				var valued *ast.ValueSpec
				for _, spec := range top.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, "", spec)
					case *ast.ValueSpec:
						// A constant with no value repeats the last one that
						// has one, type included.
						if len(spec.Values) > 0 || valued == nil {
							valued = spec
						}
						for _, name := range spec.Names {
							add(name.Name, "", spec, valued)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
