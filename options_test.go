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
	"slices"
	"sort"
	"strings"
	"sync"
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
	c, err := moduleCensus()
	if err != nil {
		t.Fatal(err)
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

// exportAllowlist names the exported functions under internal/ that only
// tests call. Each reason names the test that calls the function; a
// function no non-test code references and not listed here fails
// TestEveryExportHasACaller, and so does an entry whose function is gone
// or is now referenced by non-test code.
var exportAllowlist = map[string]string{
	"core.AddVec":                       "TestKeyCancelingRangeAggregation sums ciphertext runs with it and checks they decrypt with the two outer leaves",
	"core.EncryptVec":                   "TestSchedPoolConcurrentStreams checks the pooled EncryptDigest path against this unpooled reference",
	"core.NewResolutionStreamFromSeeds": "TestResolutionStreamSeedsRebuild rebuilds an owner's resolution keystream from its two seeds, the whole of its secret state",
	"core.ResolutionStream.Seeds":       "TestResolutionStreamSeedsRebuild reads the two seeds that rebuild the keystream",
	"paillier.PrivateKey.Decrypt":       "TestEncryptDecryptRoundTrip checks DecryptCRT against this textbook decryption",
	"replica.Node.Installs":             "TestDeposedMinorityLeaderResyncsAndDiscardsTail counts snapshot installs; the partition suite's watermark monitor exempts them",
	"sub.Broker.Views":                  "TestAcquireShareAndReplace counts the broker's live views",
	"sub.Subscription.Dropped":          "TestBoundedQueueDropsAndCounts counts the events the bounded queue dropped",
	"wire.ReadFrame":                    "TestFrameRoundTrip pins the framing ReadFrameBuf reads; client, server and netchaos tests read raw frames with it",
	"wire.WriteFrame":                   "TestFrameRoundTrip pins the framing the pooled request and response writers emit; client, server and netchaos tests write raw frames with it",
}

// TestEveryExportHasACaller is the API census. Over the same packages as
// TestEveryOptionIsSet, it collects every exported function and method
// declared under internal/ (outside the test-support packages kvtest and
// netchaos) and requires non-test code to reference each one. A method
// also counts as used when its type implements an interface declared in a
// checked package or one of stdInterfaces with it, or when the root
// package re-exports its type as an alias (the public API) from a package
// other than internal/server: an engine method needs a caller like any
// other, since clients reach the engine through its wire requests.
func TestEveryExportHasACaller(t *testing.T) {
	c, err := moduleCensus()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range c.uncalled() {
		if exportAllowlist[key] == "" {
			t.Errorf("%s is referenced by no non-test code: delete it, unexport it, or allowlist it with the test that calls it", key)
		}
	}
	testNames := c.testFuncs(t)
	for key, reason := range exportAllowlist {
		switch called, ok := c.called[key]; {
		case !ok:
			t.Errorf("allowlist entry %s names no exported function under internal/", key)
		case called:
			t.Errorf("allowlist entry %s is stale: non-test code references it", key)
		}
		if name := testName.FindString(reason); !testNames[name] {
			t.Errorf("allowlist entry %s: reason %q names no test of this module", key, reason)
		}
	}
	t.Logf("%d exported functions under internal/, %d allowlisted", len(c.called), len(exportAllowlist))
}

// TestExportCensusFixture runs the API census over testdata/census, whose
// uncalled exports are lib.OnlyTested (called only from lib_test.go) and
// lib.Recursive (referenced only by itself). The fixture's other exports
// are a method implementing a fixture interface, one implementing
// fmt.Stringer, and one on a type the root package re-exports, so a
// census that drops any rule, or passes everything, reports a different
// list. server.Engine.Wrapper is uncalled too: the root re-exports its
// type, but from internal/server.
func TestExportCensusFixture(t *testing.T) {
	c := newCensus("fixture")
	if err := c.load("testdata/census"); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(c.uncalled(), " ")
	if want := "lib.OnlyTested lib.Recursive server.Engine.Wrapper"; got != want {
		t.Errorf("uncalled = %q, want %q", got, want)
	}
}

var testName = regexp.MustCompile(`\bTest[A-Z]\w*`)

// moduleCensus type-checks this module and benchmark/ once, for both
// censuses.
var moduleCensus = sync.OnceValues(func() (*census, error) {
	c := newCensus("repro")
	return c, c.load(".", "benchmark")
})

// stdInterfaces are the standard-library interfaces whose methods the API
// census counts as used, besides error and the module's own interfaces.
var stdInterfaces = []struct{ path, name string }{
	{"fmt", "Stringer"}, {"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"net", "Conn"}, {"net", "Listener"}, {"sort", "Interface"}, {"container/heap", "Interface"},
}

// census type-checks packages on demand (it is their importer) and
// records option fields and the fields non-test code sets, and exported
// functions and the functions non-test code references.
type census struct {
	root   string // import path of the public package
	fset   *token.FileSet
	std    types.Importer
	dirs   map[string]string         // import path -> directory
	pkgs   map[string]*types.Package // checked packages
	keys   map[*types.Var]string     // option field -> "pkg.Type.Field"
	set    map[string]bool           // "pkg.Type.Field" -> set by non-test code
	funcs  map[*types.Func]string    // exported function under internal/ -> "pkg.Func" or "pkg.Type.Method"
	used   map[*types.Func]bool      // referenced by non-test code
	ifaces []*types.Interface
	called map[string]bool // "pkg.Func" or "pkg.Type.Method" -> counts as used
}

func newCensus(root string) *census {
	return &census{
		root: root, fset: token.NewFileSet(), std: importer.Default(),
		dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		keys: map[*types.Var]string{}, set: map[string]bool{},
		funcs: map[*types.Func]string{}, used: map[*types.Func]bool{},
		called: map[string]bool{},
	}
}

// load type-checks every package under the root directory and each
// extra directory (a nested module whose import paths extend the
// root's), then resolves which exports count as used.
func (c *census) load(rootDir string, extra ...string) error {
	if err := c.walk(rootDir, c.root, extra); err != nil {
		return err
	}
	for _, dir := range extra {
		if err := c.walk(dir, c.root+"/"+filepath.ToSlash(dir), nil); err != nil {
			return err
		}
	}
	for path := range c.dirs {
		if _, err := c.Import(path); err != nil {
			return fmt.Errorf("type-checking %s: %v", path, err)
		}
	}
	for _, std := range stdInterfaces {
		pkg, err := c.std.Import(std.path)
		if err != nil {
			return err
		}
		c.ifaces = append(c.ifaces, pkg.Scope().Lookup(std.name).Type().Underlying().(*types.Interface))
	}
	c.ifaces = append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for fn, key := range c.funcs {
		c.called[key] = c.used[fn] || c.implements(fn)
	}
	for _, name := range c.pkgs[c.root].Scope().Names() {
		tn, ok := c.pkgs[c.root].Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		// The untrusted server's types are re-exported for embedding, but
		// their methods are not client API: the wire request is.
		if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() == c.root+"/internal/server" {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if key, ok := c.funcs[named.Method(i)]; ok {
				c.called[key] = true
			}
		}
	}
	return nil
}

// walk records the package directories under dir, skipping hidden
// directories, testdata and the nested modules named in skip.
func (c *census) walk(dir, path string, skip []string) error {
	return filepath.WalkDir(dir, func(sub string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if sub != dir && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || slices.Contains(skip, sub)) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(dir, sub)
		if err != nil {
			return err
		}
		p := path
		if rel != "." {
			p += "/" + filepath.ToSlash(rel)
		}
		c.dirs[p] = sub
		return nil
	})
}

// implements reports whether fn is a method that its type, or a pointer
// to it, implements a census interface with.
func (c *census) implements(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if named, ok := typ.(*types.Named); !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range c.ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && (types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)) {
				return true
			}
		}
	}
	return false
}

// uncalled returns, sorted, the exports no non-test code uses.
func (c *census) uncalled() []string {
	var keys []string
	for key, called := range c.called {
		if !called {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
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
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = pkg
	c.declare(pkg)
	c.declareFuncs(pkg)
	for _, f := range files {
		c.visit(pkg, info, f)
		c.refer(info, f)
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

// declareFuncs records pkg's interfaces and, under internal/ outside the
// test-support packages, its exported functions and methods.
func (c *census) declareFuncs(pkg *types.Package) {
	internal := strings.Contains(pkg.Path(), "/internal/")
	if strings.HasSuffix(pkg.Path(), "internal/kv/kvtest") || strings.HasSuffix(pkg.Path(), "internal/netchaos") {
		internal = false
	}
	for _, name := range pkg.Scope().Names() {
		switch obj := pkg.Scope().Lookup(name).(type) {
		case *types.Func:
			if internal && obj.Exported() {
				c.funcs[obj] = pkg.Name() + "." + name
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			if iface, ok := named.Underlying().(*types.Interface); ok && iface.IsMethodSet() && named.TypeParams().Len() == 0 {
				c.ifaces = append(c.ifaces, iface)
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); internal && m.Exported() {
					c.funcs[m] = pkg.Name() + "." + name + "." + m.Name()
				}
			}
		}
	}
}

// refer marks the functions f references, except a function's
// references to itself.
func (c *census) refer(info *types.Info, f *ast.File) {
	for _, d := range f.Decls {
		var self types.Object
		if fd, ok := d.(*ast.FuncDecl); ok {
			self = info.Defs[fd.Name]
		}
		ast.Inspect(d, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
					c.used[fn.Origin()] = true
				}
			}
			return true
		})
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
