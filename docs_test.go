package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameLiveCode fails for every backticked `X.Y` or `X.Y()` in the
// reader-facing docs where X is a type the module declares and no type of
// that name has a field, method or promoted member Y. CHANGES.md and
// ROADMAP.md are history and are not checked.
func TestDocsNameLiveCode(t *testing.T) {
	members, err := moduleMembers(".")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, docs...) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range deadNames(members, name, string(data)) {
			t.Error(msg)
		}
	}
}

// TestDocsNameLiveCodeSelfTest runs the check on a snippet naming live
// members, a promoted one among them, one dead member, and spans the
// rule skips.
func TestDocsNameLiveCodeSelfTest(t *testing.T) {
	members, err := moduleMembers(".")
	if err != nil {
		t.Fatal(err)
	}
	doc := "Pull with `Batch.Append`, then `Batch.Append()`; `HashMatch.opening` is promoted.\n\n" +
		"```\nx := `Batch.NoSuch` // in a fenced block\n```\n" +
		"Skipped: `Batch.no_such`, `Batch.go`, `record.Nothing`.\n" +
		"Gone: `Batch.NoSuch`.\n"
	got := strings.Join(deadNames(members, "snippet.md", doc), "\n")
	want := "snippet.md:7: `Batch.NoSuch`: no type Batch in the module has a field or method NoSuch"
	if got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// codeSpan matches an inline code span, which may wrap across lines;
// memberSpan matches one that is all `X.Y` or `X.Y()`.
var (
	codeSpan   = regexp.MustCompile("`([^`]+)`")
	memberSpan = regexp.MustCompile(`^([A-Za-z]\w*)\.([A-Za-z]\w*)(\(\))?$`)
)

// deadNames returns one message for each `X.Y` span of the markdown text
// whose type X is in members and has no member Y. Fenced code blocks are
// not read, nor spans whose member holds "_" (metric and rung names) or
// that name a .go, .md or .json file.
func deadNames(members map[string]map[string]bool, name, text string) []string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text = strings.Join(lines, "\n")
	var msgs []string
	for _, loc := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		span := text[loc[2]:loc[3]]
		m := memberSpan.FindStringSubmatch(span)
		if m == nil || strings.Contains(m[2], "_") ||
			strings.HasSuffix(span, ".go") || strings.HasSuffix(span, ".md") || strings.HasSuffix(span, ".json") {
			continue
		}
		typ, member := m[1], m[2]
		if have, ok := members[typ]; ok && !have[member] && !have[openMembers] {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			msgs = append(msgs, fmt.Sprintf("%s:%d: `%s`: no type %s in the module has a field or method %s", name, line, span, typ, member))
		}
	}
	return msgs
}

// openMembers marks a type that embeds a type from outside the module,
// whose promoted members the check cannot see: any member passes.
const openMembers = "*"

// moduleMembers maps each type name declared in a non-test file of the
// module rooted at dir to the fields, methods and promoted members of
// every type of that name.
func moduleMembers(dir string) (map[string]map[string]bool, error) {
	pkgs, err := listPackages(dir)
	if err != nil {
		return nil, err
	}
	inModule := map[string]bool{}
	for _, p := range pkgs {
		inModule[p.ImportPath] = true
	}
	own := map[string]map[string]bool{} // type name -> declared fields and methods
	embeds := map[string][]string{}     // type name -> the types it embeds or is defined over
	declare := func(typ, member string) {
		if own[typ] == nil {
			own[typ] = map[string]bool{}
		}
		if member != "" {
			own[typ][member] = true
		}
	}
	fset := token.NewFileSet()
	for _, p := range pkgs {
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			external := map[string]bool{} // names of the file's imports from outside the module
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				local := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					local = imp.Name.Name
				}
				external[local] = !inModule[path]
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						_, recv := embedded(d.Recv.List[0].Type)
						declare(recv, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						typ := ts.Name.Name
						declare(typ, "")
						var fields []*ast.Field
						switch u := ts.Type.(type) {
						case *ast.StructType:
							fields = u.Fields.List
						case *ast.InterfaceType:
							fields = u.Methods.List
						default:
							// A type defined over another takes its members.
							fields = []*ast.Field{{Type: u}}
						}
						for _, fd := range fields {
							for _, n := range fd.Names {
								declare(typ, n.Name)
							}
							if len(fd.Names) > 0 {
								continue
							}
							pkg, name := embedded(fd.Type)
							switch {
							case pkg != "" && external[pkg]:
								embeds[typ] = append(embeds[typ], openMembers)
							case name != "":
								if _, ok := ts.Type.(*ast.StructType); ok {
									declare(typ, name) // an embedded field is named by its type
								}
								embeds[typ] = append(embeds[typ], name)
							}
						}
					}
				}
			}
		}
	}
	members := map[string]map[string]bool{}
	for typ := range own {
		all := map[string]bool{}
		seen := map[string]bool{}
		var walk func(string)
		walk = func(t string) {
			if seen[t] {
				return
			}
			seen[t] = true
			switch t {
			case openMembers:
				all[openMembers] = true
			case "error":
				all["Error"] = true
			}
			for m := range own[t] {
				all[m] = true
			}
			for _, e := range embeds[t] {
				walk(e)
			}
		}
		walk(typ)
		members[typ] = all
	}
	return members, nil
}

// embedded names an embedded type, a receiver type, or the type a type
// is defined over: its package qualifier, if any, and its name, so *T[K]
// is T. A type with no name (a func, map or union) has neither.
func embedded(e ast.Expr) (pkg, name string) {
	if s, ok := e.(*ast.StarExpr); ok {
		e = s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		return "", x.Name
	case *ast.SelectorExpr:
		if p, ok := x.X.(*ast.Ident); ok {
			return p.Name, x.Sel.Name
		}
	}
	return "", ""
}
