package cordial

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachKeep lists the declarations under internal/ that only tests reach, on
// purpose. Every other declaration there must be reachable from a program.
var reachKeep = map[string]string{
	"(*stream.Engine).Sessions":     "the session view every equivalence suite compares",
	"obs.ValidateLine":              "FuzzParseText's reference exposition grammar",
	"mltree.CodingPasses":           "the one-coding-pass invariant core's training tests count",
	"(*hbm.Profile).Derive":         "the wide-row profile of TestStoreLimitFallbacks",
	"(*chaos.Report).TemplateNames": "called by name from the HTML report template, which go/types cannot see",
	"(*xrand.RNG).Perm":             "the shuffled views of mltree's view tests and SampleInts' reference draw",
}

// stdMethods are the method names the standard library calls through its own
// interfaces (fmt, errors, encoding, net/http, sort, container/heap, io, flag,
// log/slog): calls no code of this module shows.
const stdMethods = `String GoString Format Error Unwrap Is As MarshalJSON UnmarshalJSON MarshalText
	UnmarshalText ServeHTTP RoundTrip Len Less Swap Push Pop Set Read Write Close WriteTo ReadFrom LogValue`

// reachDecl is one top-level declaration: a func, a method, a type, a var or
// const name, or a whole const block (an iota block's values depend on their
// positions, so a block stands or falls together).
type reachDecl struct {
	name, pos string
	root      bool
	recv      types.Object // a method's receiver type
	uses      []types.Object
}

func isFunc(obj types.Object) bool { _, ok := obj.(*types.Func); return ok }

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestEveryInternalDeclReached type-checks the module and bench/ from source
// and fails on any non-test declaration under internal/ that no program
// reaches: not used by cmd/, examples/, bench/, the root package, an init or a
// registering var, nor by what they reach. A method of a reached type also
// counts once a method of its name is called through an interface.
func TestEveryInternalDeclReached(t *testing.T) {
	build.Default.CgoEnabled = false // std's pure-Go files suffice to type-check
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	var paths []string // the module's and bench/'s package paths, in lexical order
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		} else if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		paths = append(paths, filepath.ToSlash(filepath.Join("cordial", p)))
		return nil
	})

	var decls []*reachDecl
	byObj, pkgs := map[types.Object]*reachDecl{}, map[string]*types.Package{}
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if !slices.Contains(paths, path) {
			return src.ImportFrom(path, ".", 0)
		} else if pkgs[path] != nil {
			return pkgs[path], nil
		}
		names, _ := filepath.Glob(filepath.Join("."+strings.TrimPrefix(path, "cordial"), "*.go"))
		files, fileDecls := []*ast.File{}, []ast.Decl{}
		for _, name := range slices.DeleteFunc(names, func(n string) bool { return strings.HasSuffix(n, "_test.go") }) {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files, fileDecls = append(files, f), append(fileDecls, f.Decls...)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: load}).Check(path, fset, files, info)
		if err != nil {
			return nil, err
		}
		pkgs[path] = pkg
		add := func(name string, node ast.Node, objs ...types.Object) *reachDecl {
			d := &reachDecl{name: pkg.Name() + "." + name, pos: fset.Position(node.Pos()).String(),
				root: !strings.HasPrefix(path, "cordial/internal/")}
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					d.uses = append(d.uses, info.Uses[id])
				}
				return true
			})
			for _, obj := range objs {
				byObj[obj] = d
			}
			decls = append(decls, d)
			return d
		}
		for _, decl := range fileDecls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[decl.Name].(*types.Func)
				d := add("", decl, fn)
				d.name = strings.TrimPrefix(strings.ReplaceAll(fn.FullName(), "cordial/internal/", ""), "cordial/")
				d.root = d.root || fn.Name() == "init"
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					rt := recv.Type()
					if ptr, ok := rt.(*types.Pointer); ok {
						rt = ptr.Elem()
					}
					d.recv = rt.(*types.Named).Origin().Obj()
				}
			case *ast.GenDecl:
				var block []types.Object
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name.Name, spec, info.Defs[spec.Name])
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							if decl.Tok == token.CONST {
								block = append(block, info.Defs[id])
							} else if id.Name != "_" {
								// A var initialised by a call into its package registers
								// something at load (hbm's profiles): a root.
								d := add(id.Name, spec, info.Defs[id])
								d.root = d.root || slices.ContainsFunc(d.uses, func(obj types.Object) bool { return obj.Pkg() == pkg && isFunc(obj) })
							}
						}
					}
				}
				if block != nil {
					add(block[0].Name(), decl, block...)
				}
			}
		}
		return pkg, nil
	}
	for _, path := range paths {
		if _, err := load(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	reached, called, std := map[*reachDecl]bool{}, map[string]bool{}, strings.Fields(stdMethods)
	reach := func(queue ...*reachDecl) {
		for len(queue) > 0 {
			d := queue[0]
			if queue = queue[1:]; d != nil && !reached[d] {
				reached[d] = true
				for _, obj := range d.uses {
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin() // a generic's instance
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							called[fn.Name()] = true
						}
					}
					queue = append(queue, byObj[obj])
				}
			}
			if len(queue) == 0 { // drained: add the methods reached types have been called by
				for _, m := range decls {
					method := m.name[strings.LastIndexByte(m.name, '.')+1:]
					if m.recv != nil && !reached[m] && reached[byObj[m.recv]] && (called[method] || slices.Contains(std, method)) {
						queue = append(queue, m)
					}
				}
			}
		}
	}
	reach(slices.DeleteFunc(slices.Clone(decls), func(d *reachDecl) bool { return !d.root })...)
	// A kept declaration must exist and must not be reached by a program
	// already; what it uses is kept with it.
	var kept []*reachDecl
	for name := range reachKeep {
		switch i := slices.IndexFunc(decls, func(d *reachDecl) bool { return d.name == name }); {
		case i < 0:
			t.Errorf("reachKeep names %s, which is not declared", name)
		case reached[decls[i]]:
			t.Errorf("%s %s is reached by a program now: drop it from reachKeep", decls[i].pos, name)
		default:
			kept = append(kept, decls[i])
		}
	}
	reach(kept...)
	for _, d := range decls {
		if !reached[d] {
			t.Errorf("unreached: %s %s", d.pos, d.name)
		}
	}
}
