package cordial

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docsAllow lists the backticked names the documents use that the test cannot
// see declared: environment variables, and standard-library names only tests
// import. Flags (`-x`), routes and file paths are told apart by their shape,
// metric, workload and configuration keys by their snake case, and JSON keys,
// label values and scenario keys by being string literals of the code; none
// needs an entry.
var docsAllow = map[string]string{
	"GOGC":                 "the Go runtime's environment variable",
	"GOMAXPROCS":           "the Go runtime's environment variable",
	"types.Info.Defs":      "standard library, imported by tests only",
	"testing.AllocsPerRun": "standard library, imported by tests only",
}

// docIdent matches a backticked span that names Go code: Ident, pkg.Ident,
// Type.Method, pkg.Type.Method, with an optional (*T) receiver form and a
// trailing call's parentheses.
var docIdent = regexp.MustCompile(`^\(?\*?([A-Za-z_]\w*)\)?((?:\.[A-Za-z_]\w*){0,2})(?:\(\))?$`)

// snakeCase reports whether s is a metric, workload or configuration key
// (`hot_banks`, `stream.cpu_ns_per_event`, `_sum`): Go names here are never
// lower snake case.
func snakeCase(s string) bool { return strings.Contains(s, "_") && strings.ToLower(s) == s }

// fileName matches a file name or pattern (`shard.go`, `metric_families.golden`).
var fileName = regexp.MustCompile(`\.(go|md|json|jsonl|golden|hex|yaml|sh|txt|html|csv)$`)

// docSpans returns the backticked spans of a markdown file outside fenced
// code blocks, each with its line number.
func docSpans(t *testing.T, name string) (spans []string, lines []int) {
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	fenced := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		for j := 1; j < len(parts)-1; j += 2 {
			spans, lines = append(spans, parts[j]), append(lines, i+1)
		}
	}
	return spans, lines
}

// docNames is every name a document may use for code: the declarations of
// the module and bench/ (their tests' included), members as Type.Member,
// package members as pkg.Name, the packages they import, and the string
// literals and JSON keys of their non-test code.
type docNames struct {
	idents  map[string]bool            // any declared name and package name
	vars    map[string]bool            // declared names of variables, fields and parameters
	members map[string]map[string]bool // type or package name → member names
	values  map[string]bool            // string literals and JSON keys of non-test code
}

func (n docNames) add(scope, name string) {
	if n.members[scope] == nil {
		n.members[scope] = map[string]bool{}
	}
	n.members[scope][name] = true
	n.idents[name] = true
}

func loadDocNames(t *testing.T) docNames {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	n := docNames{idents: map[string]bool{}, vars: map[string]bool{},
		members: map[string]map[string]bool{}, values: map[string]bool{}}
	addType := func(obj *types.TypeName) {
		n.idents[obj.Name()] = true
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return
		}
		for _, ptr := range []types.Type{named, types.NewPointer(named)} {
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				n.add(obj.Name(), ms.At(i).Obj().Name())
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				n.add(obj.Name(), st.Field(i).Name())
			}
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				n.add(obj.Name(), it.Method(i).Name())
			}
		}
	}
	imported := map[*types.Package]bool{}
	for _, path := range mod.paths {
		p := mod.pkgs[path]
		n.idents[p.pkg.Name()] = true
		for _, name := range p.pkg.Scope().Names() {
			n.add(p.pkg.Name(), name)
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addType(tn)
			} else if obj != nil {
				n.idents[obj.Name()] = true
				_, isVar := obj.(*types.Var)
				n.vars[obj.Name()] = n.vars[obj.Name()] || isVar
			}
		}
		for _, imp := range p.pkg.Imports() {
			imported[imp] = true
		}
		for _, f := range p.files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch node := node.(type) {
				case *ast.BasicLit:
					if v, err := strconv.Unquote(node.Value); err == nil && node.Kind == token.STRING {
						n.values[v] = true
					}
				case *ast.Field:
					if node.Tag != nil {
						tag, _ := strconv.Unquote(node.Tag.Value)
						n.values[strings.Split(reflect.StructTag(tag).Get("json"), ",")[0]] = true
					}
				}
				return true
			})
		}
	}
	for imp := range imported {
		if !strings.HasPrefix(imp.Path(), "cordial") {
			n.idents[imp.Name()] = true
			for _, name := range imp.Scope().Names() {
				n.add(imp.Name(), name)
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addType(tn)
				}
			}
		}
	}
	// Test files are parsed, not type-checked: their top-level names and
	// methods are what documents cite (tests, benchmarks, fuzz targets).
	fset := token.NewFileSet()
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				scope := f.Name.Name
				if decl.Recv != nil {
					typ := decl.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						scope = id.Name
					}
				}
				n.add(scope, decl.Name.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						n.add(f.Name.Name, spec.Name.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							n.add(f.Name.Name, id.Name)
						}
					}
				}
			}
		}
		return nil
	})
	return n
}

// resolves reports whether a docIdent match names code.
func (n docNames) resolves(parts []string) bool {
	switch len(parts) {
	case 1:
		return n.idents[parts[0]] || types.Universe.Lookup(parts[0]) != nil || token.Lookup(parts[0]).IsKeyword()
	case 2:
		if n.members[parts[0]][parts[1]] { // a type's or a package's member
			return true
		}
		if n.vars[parts[0]] { // a variable's or a field's member: some type has it
			for _, ms := range n.members {
				if ms[parts[1]] {
					return true
				}
			}
		}
		return false
	}
	// pkg.Type.Member or Type.Field.Member: the last two must pair, and the
	// first must own the second.
	return n.members[parts[0]][parts[1]] && (n.members[parts[1]][parts[2]] || n.idents[parts[2]])
}

// jsonPath reports whether every part is a key or value the code spells: a
// path into a JSON or scenario document (`shadow.since`, `fleet.faultfs`).
func (n docNames) jsonPath(parts []string) bool {
	for _, p := range parts {
		if !n.values[p] {
			return false
		}
	}
	return true
}

// TestDocsNameLiveCode: every backticked Ident, pkg.Ident or Type.Method in
// DESIGN.md and README.md names a declaration of the module or bench/, so a
// rename or a deletion cannot leave the documents describing code that is
// gone.
func TestDocsNameLiveCode(t *testing.T) {
	names := loadDocNames(t)
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		spans, lines := docSpans(t, doc)
		for i, span := range spans {
			m := docIdent.FindStringSubmatch(span)
			if m == nil || docsAllow[span] != "" || snakeCase(span) || fileName.MatchString(span) {
				continue
			}
			parts := append([]string{m[1]}, strings.Split(m[2], ".")[1:]...)
			if !names.resolves(parts) && !names.jsonPath(parts) {
				t.Errorf("%s:%d: `%s` names no declaration of the module or bench/", doc, lines[i], span)
			}
		}
	}
}
