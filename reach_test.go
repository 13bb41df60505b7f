package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowListFile names the functions no binary reaches that stay anyway,
// one per line: a linker symbol or a file relative to the module root,
// then the reason it stays.
const (
	allowListFile = "testdata/unreachable.txt"
	maxAllowed    = 12
)

// TestReachability fails for every non-test function that no main
// package in the module reaches, unless the allow-list names it. The
// linker decides reachability: every main is built with inlining off and
// -dumpdep, which prints each edge of the linker's dead-code walk.
func TestReachability(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary with the go tool; skipped under -short")
	}
	dead, all, err := unreached(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readAllowList(allowListFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkAllowList(dead, all, allow) {
		t.Error(msg)
	}
}

// TestReachabilityGateSelfTest runs the gate on a throwaway module whose
// main reaches a function, a pointer method, a generic instance and a
// closure, and leaves an exported function and a method that only
// satisfies an interface unreached. The gate must report exactly those
// two, by file and line; an empty or reformatted -dumpdep fails here.
func TestReachabilityGateSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary with the go tool; skipped under -short")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/reach\n\ngo 1.22\n",
		"main.go": `package main

import "example.com/reach/lib"

func main() {
	lib.F()
	var t lib.T
	t.M()
	println(lib.G(1))
	var s lib.Shape = lib.Square{}
	println(s.Area())
	lib.Each(func(i int) { println(i) })
}
`,
		"lib/lib.go": `package lib

func F() { println("f") }

type T struct{ n int }

func (t *T) M() { t.n++ }

func G[V any](v V) V { return v }

func Each(f func(int)) {
	for i := 0; i < 2; i++ {
		func() { f(i) }()
	}
}

type Shape interface {
	Area() int
	Name() string
}

type Square struct{}

func (Square) Area() int { return 4 }

func (Square) Name() string { return "square" }

func Dead() int { return 0 }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, all, err := unreached(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.pos()+" "+d.sym)
	}
	want := []string{
		"lib/lib.go:26 example.com/reach/lib.Square.Name",
		"lib/lib.go:28 example.com/reach/lib.Dead",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unreached:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// The allow-list: a listed unreached symbol passes, the other fails
	// by position, and an entry for a reached function is stale.
	msgs := checkAllowList(dead, all, map[string]string{
		"example.com/reach/lib.Square.Name": "satisfies Shape",
		"example.com/reach/lib.(*T).M":      "stale",
	})
	if len(msgs) != 2 || !strings.HasPrefix(msgs[0], "lib/lib.go:28: example.com/reach/lib.Dead ") ||
		!strings.Contains(msgs[1], "example.com/reach/lib.(*T).M is reached") {
		t.Fatalf("allow-list check:\n%s", strings.Join(msgs, "\n"))
	}
}

// A funcDecl is one non-test function declaration under the name the
// linker gives it: pkg.F, pkg.T.M or pkg.(*T).M, with "[…]" standing for
// the type arguments of each instance of a generic function or type.
type funcDecl struct {
	sym  string
	file string // relative to the module root, slash-separated
	line int
	bin  string // directory of the main package declaring it, whose binary alone can reach it
}

func (d funcDecl) pos() string { return fmt.Sprintf("%s:%d", d.file, d.line) }

type goPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
}

// listPackages lists every package of the module rooted at dir.
func listPackages(dir string) ([]goPackage, error) {
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// linkedSymbols builds the main package pkg with inlining off, so every
// call stays an edge, and returns each symbol on either side of the
// linker's -dumpdep edges ("from -> to").
func linkedSymbols(dir, pkg string) (map[string]bool, error) {
	cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull, pkg)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build %s: %v\n%s", pkg, err, out.Bytes())
	}
	syms := map[string]bool{}
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if from, to, ok := strings.Cut(sc.Text(), " -> "); ok {
			syms[from], syms[to] = true, true
		}
	}
	if !syms["main.main"] {
		return nil, fmt.Errorf("go build %s: -dumpdep printed no edge to main.main; has its format changed?", pkg)
	}
	return syms, nil
}

// moduleDecls lists every non-test function declaration of pkgs, except
// init and main, which run whenever their package is linked. Files are
// named relative to root.
func moduleDecls(root string, pkgs []goPackage) ([]funcDecl, error) {
	var decls []funcDecl
	fset := token.NewFileSet()
	for _, p := range pkgs {
		prefix, bin := p.ImportPath, ""
		if p.Name == "main" {
			prefix, bin = "main", p.Dir
		}
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return nil, err
			}
			rel = filepath.ToSlash(rel)
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main") {
					continue
				}
				decls = append(decls, funcDecl{
					sym:  prefix + "." + linkerName(fd),
					file: rel,
					line: fset.Position(fd.Pos()).Line,
					bin:  bin,
				})
			}
		}
	}
	return decls, nil
}

// linkerName names fd as the linker does, without the package prefix.
func linkerName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		if fd.Type.TypeParams != nil {
			return fd.Name.Name + "[…]"
		}
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, true
	}
	var recv string
	switch r := typ.(type) {
	case *ast.IndexExpr:
		recv = r.X.(*ast.Ident).Name + "[…]"
	case *ast.IndexListExpr:
		recv = r.X.(*ast.Ident).Name + "[…]"
	default:
		recv = r.(*ast.Ident).Name
	}
	if star {
		return "(*" + recv + ")." + fd.Name.Name
	}
	return recv + "." + fd.Name.Name
}

// reached reports whether syms holds the symbol of d, or of any instance
// of d when it is generic.
func reached(d funcDecl, syms map[string]bool) bool {
	prefix, suffix, generic := strings.Cut(d.sym, "…")
	if !generic {
		return syms[d.sym]
	}
	for s := range syms {
		if len(s) > len(prefix)+len(suffix) && strings.HasPrefix(s, prefix) && strings.HasSuffix(s, suffix) {
			return true
		}
	}
	return false
}

// unreached builds every main package of the module rooted at dir and
// returns its non-test function declarations: all of them, and those no
// binary reaches, sorted by position.
func unreached(dir string) (dead, all []funcDecl, err error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgs, err := listPackages(root)
	if err != nil {
		return nil, nil, err
	}
	all, err = moduleDecls(root, pkgs)
	if err != nil {
		return nil, nil, err
	}
	union := map[string]bool{}
	own := map[string]map[string]bool{} // main package directory -> its binary's symbols
	for _, p := range pkgs {
		if p.Name != "main" {
			continue
		}
		syms, err := linkedSymbols(root, p.ImportPath)
		if err != nil {
			return nil, nil, err
		}
		own[p.Dir] = syms
		for s := range syms {
			union[s] = true
		}
	}
	if len(own) == 0 {
		return nil, nil, fmt.Errorf("no main package under %s", root)
	}
	for _, d := range all {
		syms := union
		if d.bin != "" {
			syms = own[d.bin]
		}
		if !reached(d, syms) {
			dead = append(dead, d)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	return dead, all, nil
}

// readAllowList reads the allow-list: entry -> reason.
func readAllowList(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, i+1, entry)
		}
		if _, dup := allow[entry]; dup {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, i+1, entry)
		}
		allow[entry] = strings.TrimSpace(reason)
	}
	return allow, nil
}

// checkAllowList returns one message for each unreached declaration the
// allow-list does not name, each stale entry (a symbol that is reached or
// no longer declared, a file with no unreached function left in it), and
// one more when the list is longer than maxAllowed.
func checkAllowList(unreachedDecls, all []funcDecl, allow map[string]string) []string {
	var msgs []string
	dead := map[string]bool{} // unreached symbols and the files holding them
	for _, d := range unreachedDecls {
		dead[d.sym], dead[d.file] = true, true
		if allow[d.sym] == "" && allow[d.file] == "" {
			msgs = append(msgs, fmt.Sprintf("%s: %s is reached by no binary: delete it, move it into a _test.go file, or list it in %s with a reason",
				d.pos(), d.sym, allowListFile))
		}
	}
	declared := map[string]bool{}
	for _, d := range all {
		declared[d.sym], declared[d.file] = true, true
	}
	var stale []string
	for entry := range allow {
		switch {
		case !declared[entry]:
			stale = append(stale, fmt.Sprintf("%s: stale entry %s: no such function or file", allowListFile, entry))
		case !dead[entry]:
			stale = append(stale, fmt.Sprintf("%s: stale entry %s is reached by a binary", allowListFile, entry))
		}
	}
	sort.Strings(stale)
	msgs = append(msgs, stale...)
	if len(allow) > maxAllowed {
		msgs = append(msgs, fmt.Sprintf("%s has %d entries; at most %d may stay", allowListFile, len(allow), maxAllowed))
	}
	return msgs
}
