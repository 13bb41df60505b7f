package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goAllowed lists every function outside benchmark/ and examples/ that
// may start goroutines, keyed by file and enclosing function, with how
// many go statements it holds and why. The paper's exchange module is
// the one place query work runs in parallel; everything else here is
// process plumbing or a measurement harness.
var goAllowed = map[string]struct {
	n      int
	reason string
}{
	"internal/node/node.go Run":                        {2, "serves the query listener and the separate -metrics listener"},
	"internal/core/exchange.go Exchange.ensureStarted": {2, "the exchange forks its producers: the root of the spawn tree, or each producer of an inline group"},
	"internal/core/exchange.go Exchange.spawnTree":     {1, "the exchange's spawn tree forks its second half"},
	"internal/dist/coordinator.go NewCoordinator":      {1, "the worker heartbeat loop"},
	"internal/metrics/http.go Serve":                   {1, "serves /metrics on its own listener"},
	"internal/bench/ablations.go shipOverWire":         {1, "harness: the sending end of the wire ablation"},
}

// TestGoStatementsAllowListed fails on every go statement outside
// benchmark/ and examples/ whose file and enclosing function the
// allow-list does not name, and on every entry whose count no longer
// matches the code, so a goroutine cannot be born anywhere new without
// the list saying why.
func TestGoStatementsAllowListed(t *testing.T) {
	found, err := goStatements(".")
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range found {
		keys = append(keys, k)
	}
	for k := range goAllowed {
		if _, ok := found[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		pos, allowed := found[k], goAllowed[k]
		switch {
		case allowed.n == 0:
			t.Errorf("%s: go statement in %s, which the allow-list does not name", pos[0], k)
		case len(pos) != allowed.n:
			t.Errorf("%s holds %d go statements %v, the allow-list says %d", k, len(pos), pos, allowed.n)
		}
	}
}

// goStatements maps "file func" to the positions of the go statements
// in every non-test Go file under root, skipping benchmark/, examples/,
// testdata and hidden directories. A method is named Type.Method; a
// statement outside any function is under "(package level)".
func goStatements(root string) (map[string][]string, error) {
	found := map[string][]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == root:
			case name == "benchmark" && filepath.Dir(path) == root,
				name == "examples" && filepath.Dir(path) == root,
				name == "testdata", strings.HasPrefix(name, "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		for _, decl := range f.Decls {
			name := "(package level)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = funcName(fd)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p := fset.Position(g.Pos())
					key := rel + " " + name
					found[key] = append(found[key], fmt.Sprintf("%s:%d", rel, p.Line))
				}
				return true
			})
		}
		return nil
	})
	return found, err
}

// funcName names a declaration as the allow-list does: Type.Method for
// a method (pointer or not), the bare name for a function.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok { // generic receiver
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
