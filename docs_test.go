// Documentation hygiene checks, run as ordinary tests so CI (and plain
// `go test ./...`) fails when the docs rot:
//
//   - TestPackageDocs: every package in this module carries a package
//     comment, so `go doc` actually describes the system.
//   - TestMarkdownLinks: every relative link in README.md and docs/*.md
//     resolves to a file that exists (and intra-document #anchors to a
//     heading that exists), so the docs suite cannot rot silently.
//   - TestCIRunPatternsMatchTests: every test a CI step names with -run
//     exists, so a rename cannot drop it from its step.
package timecrypt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestPackageDocs parses every non-test package under the module root and
// requires a package comment (a doc comment attached to some file's
// package clause).
func TestPackageDocs(t *testing.T) {
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgDirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range pkgDirs {
		documented := false
		var files []string
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		fset := token.NewFileSet()
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			files = append(files, path)
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
			}
		}
		if len(files) > 0 && !documented {
			t.Errorf("package %s has no package comment on any of its files; add a doc.go or a comment above one package clause", dir)
		}
	}
}

// mdLink matches inline markdown links [text](target); images and
// reference-style links are out of scope for the repo's docs.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestMarkdownLinks verifies every relative link in the doc suite.
func TestMarkdownLinks(t *testing.T) {
	var docs []string
	for _, glob := range []string{"README.md", "docs/*.md", "*.md"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, matches...)
	}
	seen := map[string]bool{}
	for _, doc := range docs {
		if seen[doc] {
			continue
		}
		seen[doc] = true
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		anchors := headingAnchors(string(data))
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"), strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external links are not checked (no network in CI)
			case strings.HasPrefix(target, "#"):
				if !anchors[strings.TrimPrefix(target, "#")] {
					t.Errorf("%s: anchor link %q has no matching heading", doc, target)
				}
			default:
				path, frag, _ := strings.Cut(target, "#")
				resolved := filepath.Join(filepath.Dir(doc), path)
				info, err := os.Stat(resolved)
				if err != nil {
					t.Errorf("%s: link target %q does not exist", doc, target)
					continue
				}
				if frag != "" && !info.IsDir() && strings.HasSuffix(path, ".md") {
					other, err := os.ReadFile(resolved)
					if err != nil {
						t.Errorf("%s: reading link target %q: %v", doc, target, err)
						continue
					}
					if !headingAnchors(string(other))[frag] {
						t.Errorf("%s: anchor %q not found in %s", doc, target, path)
					}
				}
			}
		}
	}
	if len(seen) < 4 {
		t.Fatalf("link checker found only %d markdown files; docs/ suite missing?", len(seen))
	}
}

// headingAnchors derives GitHub-style anchor slugs from markdown headings.
func headingAnchors(md string) map[string]bool {
	anchors := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		text := strings.TrimSpace(strings.TrimLeft(line, "#"))
		slug := strings.ToLower(text)
		// GitHub's slugger: drop everything but letters, digits, spaces,
		// and hyphens, then spaces become hyphens.
		var b strings.Builder
		for _, r := range slug {
			switch {
			case r == ' ':
				b.WriteRune('-')
			case r == '-' || r == '_':
				b.WriteRune(r)
			case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
				b.WriteRune(r)
			case r > 127: // keep non-ASCII letters (GitHub does)
				b.WriteRune(r)
			}
		}
		anchors[b.String()] = true
	}
	return anchors
}

// Ensure the suite the README promises actually exists.
func TestDocsSuitePresent(t *testing.T) {
	for _, doc := range []string{"docs/ARCHITECTURE.md", "docs/PROTOCOL.md", "docs/OPERATIONS.md"} {
		if _, err := os.Stat(doc); err != nil {
			t.Errorf("%s missing: %v", doc, err)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"docs/ARCHITECTURE.md", "docs/PROTOCOL.md", "docs/OPERATIONS.md"} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README does not link %s", want)
		}
	}
}

// ciRun matches a `go test` command in the CI workflow that selects tests
// with -run: the pattern, then the rest of the line (flags and packages).
var ciRun = regexp.MustCompile(`go test\b[^\n]*?-run '([^']*)'([^\n]*)`)

// TestCIRunPatternsMatchTests: `go test -run 'A|B'` stays green when B
// matches no test, so a renamed test would silently drop out of the CI
// step that names it. Every |-alternative of every -run pattern in the
// workflow must match a Test, Benchmark or Fuzz function in that
// command's own packages.
func TestCIRunPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	commands, alternatives := 0, 0
	for _, m := range ciRun.FindAllStringSubmatch(string(data), -1) {
		pattern, rest := m[1], m[2]
		if pattern == "^$" {
			continue
		}
		commands++
		var names []string
		for _, arg := range strings.Fields(rest) {
			if strings.HasPrefix(arg, ".") {
				names = append(names, ciTestFuncs(t, arg)...)
			}
		}
		for _, alt := range strings.Split(pattern, "|") {
			alternatives++
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("-run %q: alternative %q: %v", pattern, alt, err)
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				t.Errorf("-run %q%s: %q matches no test in those packages", pattern, rest, alt)
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test -run command in the CI workflow")
	}
	t.Logf("%d -run commands, %d alternatives", commands, alternatives)
}

// ciTestFuncs returns the Test, Benchmark and Fuzz functions in the
// packages a go test argument names: one directory, or with /... every
// directory under it in this module.
func ciTestFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	root, recursive := strings.CutSuffix(pkg, "/...")
	var names []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			_, err := os.Stat(filepath.Join(path, "go.mod")) // a nested module
			if !recursive || err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Benchmark") || strings.HasPrefix(n, "Fuzz") {
					names = append(names, n)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("go test package %s: %v", pkg, err)
	}
	return names
}
