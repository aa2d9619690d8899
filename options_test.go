package timecrypt

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// optionAllowlist names the option fields that only tests set. Each
// reason names the test that sets the field; a field not set by any
// non-test code and not listed here fails TestEveryOptionIsSet, and so
// does an entry whose field is gone or is now set by non-test code.
var optionAllowlist = map[string]string{
	"cluster.GroupOptions.CallTimeout": "TestSplitBrainMinorityLeaderRefused bounds each attempt so a blackholed leader fails over",
	"cluster.GroupOptions.NetDial":     "TestSplitBrainMinorityLeaderRefused dials the group through netchaos",
	"replica.Options.NetDial":          "TestQuorumBlocksWithoutMajorityAndHealsCleanly dials followers through netchaos",
	"replica.Options.OnAck":            "TestSplitBrainMinorityLeaderRefused journals every quorum acknowledgement",
	"client.StreamOptions.Fanout":      "TestClusterE2E builds 8-ary trees so small fixtures span several index levels; the value is recorded in StreamConfig",
}

// TestEveryOptionIsSet is the knob census. It type-checks every non-test
// package of this module and of benchmark/, collects the exported fields
// of every exported struct named *Options or *Config (outside
// internal/wire, whose structs are the protocol) plus server.Server, and
// requires non-test code to set each one: a composite-literal key, an
// assignment or increment, or an address taken (a flag binding). An
// unkeyed literal counts for nothing, so it fails loudly. A
// package filling its own struct's zero values (an assignment under an
// if that tests the same field) does not count.
func TestEveryOptionIsSet(t *testing.T) {
	c := newCensus()
	for _, root := range []struct{ dir, path string }{{".", "repro"}, {"benchmark", "repro/benchmark"}} {
		err := filepath.WalkDir(root.dir, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root.dir && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmark") {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root.dir, dir)
			if err != nil {
				return err
			}
			path := root.path
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			c.dirs[path] = dir
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for path := range c.dirs {
		if _, err := c.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	var unset []string
	for key, set := range c.set {
		if !set && optionAllowlist[key] == "" {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s is set by no non-test code: delete it, unexport it, or allowlist it with the test that sets it", key)
	}
	testNames := c.testFuncs(t)
	for key, reason := range optionAllowlist {
		switch set, ok := c.set[key]; {
		case !ok:
			t.Errorf("allowlist entry %s names no option field", key)
		case set:
			t.Errorf("allowlist entry %s is stale: non-test code sets it", key)
		}
		if name := testName.FindString(reason); !testNames[name] {
			t.Errorf("allowlist entry %s: reason %q names no test of this module", key, reason)
		}
	}
	t.Logf("%d exported option fields, %d allowlisted", len(c.set), len(optionAllowlist))
}

var testName = regexp.MustCompile(`\bTest[A-Z]\w*`)

// census type-checks packages on demand (it is their importer) and
// records option fields and the fields non-test code sets.
type census struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string         // import path -> directory
	pkgs map[string]*types.Package // checked packages
	keys map[*types.Var]string     // option field -> "pkg.Type.Field"
	set  map[string]bool           // "pkg.Type.Field" -> set by non-test code
}

func newCensus() *census {
	return &census{
		fset: token.NewFileSet(), std: importer.Default(),
		dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		keys: map[*types.Var]string{}, set: map[string]bool{},
	}
}

func (c *census) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := c.dirs[path]
	if !ok {
		return c.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	c.declare(pkg)
	for _, f := range files {
		c.visit(pkg, info, f)
	}
	return pkg, nil
}

// declare records pkg's option structs. A package's fields are declared
// before any importer's uses are visited, since imports finish first.
func (c *census) declare(pkg *types.Package) {
	if strings.HasSuffix(pkg.Path(), "internal/wire") {
		return
	}
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || tn.IsAlias() {
			continue
		}
		isServer := pkg.Path() == "repro/internal/server" && name == "Server"
		if !isServer && !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Config") {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				key := fmt.Sprintf("%s.%s.%s", pkg.Name(), name, f.Name())
				c.keys[f], c.set[key] = key, false
			}
		}
	}
}

// visit marks the option fields f sets.
func (c *census) visit(pkg *types.Package, info *types.Info, f *ast.File) {
	// setField marks the field e selects, unless e is filled under an if
	// testing the same field in the field's own package (a default).
	var ifs []*ast.IfStmt
	setField := func(e ast.Expr) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		field, ok := info.Uses[sel.Sel].(*types.Var)
		if ok && field.Pkg() == pkg && len(ifs) > 0 && mentions(ifs[len(ifs)-1].Cond, types.ExprString(sel)) {
			return
		}
		c.mark(field)
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			ast.Inspect(n.Cond, walk)
			ifs = append(ifs, n)
			ast.Inspect(n.Body, walk)
			ifs = ifs[:len(ifs)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, walk)
			}
			return false
		case *ast.KeyValueExpr: // a struct literal's key resolves to its field
			if id, ok := n.Key.(*ast.Ident); ok {
				field, _ := info.Uses[id].(*types.Var)
				c.mark(field)
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, lhs := range n.Lhs {
					setField(lhs)
				}
			}
		case *ast.IncDecStmt:
			setField(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				setField(n.X)
			}
		}
		return true
	}
	ast.Inspect(f, walk)
}

func (c *census) mark(field *types.Var) {
	if key, ok := c.keys[field]; ok {
		c.set[key] = true
	}
}

// mentions reports whether cond contains the expression printed as want.
func mentions(cond ast.Expr, want string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = true
		}
		return !found
	})
	return found
}

// testFuncs returns the names of the Test functions in the census's
// packages, which allowlist reasons must name.
func (c *census) testFuncs(t *testing.T) map[string]bool {
	names := map[string]bool{}
	for _, dir := range c.dirs {
		tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range tests {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					names[fn.Name.Name] = true
				}
			}
		}
	}
	return names
}
