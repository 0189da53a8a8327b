package cordial

import (
	"fmt"
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
	"sync"
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

// module is the module and bench/ type-checked from source: every package's
// non-test files and what go/types recorded of their identifiers.
type module struct {
	fset  *token.FileSet
	paths []string // package paths, in lexical order
	pkgs  map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// loadModule type-checks the module once per test binary; the reachability
// test and the deletion gates read the same result.
var loadModule = sync.OnceValues(func() (*module, error) {
	build.Default.CgoEnabled = false // std's pure-Go files suffice to type-check
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*checkedPkg{}}
	src := importer.ForCompiler(m.fset, "source", nil).(types.ImporterFrom)
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		} else if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		m.paths = append(m.paths, filepath.ToSlash(filepath.Join("cordial", p)))
		return nil
	})
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if !slices.Contains(m.paths, path) {
			return src.ImportFrom(path, ".", 0)
		} else if m.pkgs[path] != nil {
			return m.pkgs[path].pkg, nil
		}
		names, _ := filepath.Glob(filepath.Join("."+strings.TrimPrefix(path, "cordial"), "*.go"))
		var files []*ast.File
		for _, name := range slices.DeleteFunc(names, func(n string) bool { return strings.HasSuffix(n, "_test.go") }) {
			f, err := parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: load}).Check(path, m.fset, files, info)
		if err != nil {
			return nil, err
		}
		m.pkgs[path] = &checkedPkg{pkg, files, info}
		return pkg, nil
	}
	for _, path := range m.paths {
		if _, err := load(path); err != nil {
			return nil, fmt.Errorf("type-check %s: %v", path, err)
		}
	}
	return m, nil
})

// TestEveryInternalDeclReached type-checks the module and bench/ from source
// and fails on any non-test declaration under internal/ that no program
// reaches: not used by cmd/, examples/, bench/, the root package, an init or a
// registering var, nor by what they reach. A method of a reached type also
// counts once a method of its name is called through an interface.
func TestEveryInternalDeclReached(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	var decls []*reachDecl
	byObj := map[types.Object]*reachDecl{}
	for _, path := range mod.paths {
		fset, pkg, info := mod.fset, mod.pkgs[path].pkg, mod.pkgs[path].info
		var fileDecls []ast.Decl
		for _, f := range mod.pkgs[path].files {
			fileDecls = append(fileDecls, f.Decls...)
		}
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

// deletionGates are what earlier changes deleted for one remaining
// implementation: a duplicate, a second index, a second fold, a second tier, an
// option. Each row names the change that deleted it (its title in CHANGES.md
// and the git log), what replaced the deleted code, the identifiers that must
// not be declared again anywhere in the module's or bench/'s non-test Go (as
// a type, func, method, field, var, const or parameter) and, where the
// contract is a shape rather than a name, a check over the type-checked module
// that returns its violations. A check whose target is gone reports that too,
// so a rename cannot make a gate pass by matching nothing.
var deletionGates = []struct {
	gate, deletedBy, replacedBy string
	names                       []string
	check                       func(*module) []string
}{
	{
		gate: "one instrument set", deletedBy: "One instrument set, read without shard locks",
		replacedBy: "obs.Histogram for every latency, EngineStats read back from the instruments, one exposition parser; lifecycle.Manager for retraining",
		names:      []string{"latencySampler", "nearestRank", "jsonLatency", "jsonShadow", "shardSum", "validateLabelBlock", "NewTrainer"},
	},
	{
		gate: "one bank index", deletedBy: "A shard-owned quiet-bank store",
		replacedBy: "a shard's bankStore, its only index of its banks",
		check:      noSessionMap,
	},
	{
		gate: "one pack per event", deletedBy: "The fleet path in packed form",
		replacedBy: "the queued record: the shard step keys it with packed & BankMask and the journal step copies its bytes",
		check:      packedOnce,
	},
	{
		gate: "one fold", deletedBy: "One shard step, three thin drivers",
		replacedBy: "shardState.step, the one fold under live ingest, boot replay and handoff import",
		names:      []string{"foldDetached", "quarantineDetached", "resetSessions"},
		check:      oneFold,
	},
	{
		gate: "one quiet tier", deletedBy: "One quiet tier, the engine's",
		replacedBy: "the shard store's observation log, resumed through QuietStrategy.ResumeSession",
		names:      []string{"maxPending", "pendingStart", "QuietSession", "QuietLog", "DeferredFootprint", "Deferred"},
		check:      quietStrategyOneMethod,
	},
	{
		gate: "one coded training matrix", deletedBy: "One coded training matrix per dataset",
		replacedBy: "the dataset's value codes, shared by every Tree and Forest fit; the float transpose is the boosting trainer's",
		check:      columnizeOnlyInGBDT,
	},
	{
		gate: "only the knobs programs turn", deletedBy: "Learners with only the knobs Cordial turns",
		replacedBy: "unexported learner constants and fixed serving defaults",
		names: []string{"Entropy", "Criterion", "EarlyStopRounds", "PositiveWeight", "TopRate", "oobScore",
			"copyLists", "rootSorted", "NoGroupCommit", "MaxLineBytes", "MaxBatchErrors"},
	},
	{
		gate: "one journal reader, one publish", deletedBy: "The journal and its files, one of each",
		replacedBy: "wal's segment reader under Open, Replay and ReadJournal; wal.Publish and wal.Numbered under snapshots, model artefacts and the active pointer",
		names: []string{"readRecord", "scanSegment", "replaySegment", "ExportRange", "walRecordWire", "toWire",
			"suffixRecords", "writeActivePointer", "SyncInterval"},
	},
}

// TestDeletedStaysDeleted holds every deletion gate over the module and
// bench/, type-checked once with TestEveryInternalDeclReached.
func TestDeletedStaysDeleted(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range deletionGates {
		t.Run(g.gate, func(t *testing.T) {
			var bad []string
			for _, path := range mod.paths {
				for id, obj := range mod.pkgs[path].info.Defs {
					if obj != nil && slices.Contains(g.names, id.Name) {
						bad = append(bad, fmt.Sprintf("%s declares %s", mod.fset.Position(id.Pos()), id.Name))
					}
				}
			}
			if g.check != nil {
				bad = append(bad, g.check(mod)...)
			}
			slices.Sort(bad)
			for _, b := range bad {
				t.Errorf("%s (deleted by %q; replaced by %s)", b, g.deletedBy, g.replacedBy)
			}
		})
	}
}

const streamPkg = "cordial/internal/stream"

// objOf returns the object an identifier or a selector's name denotes — for a
// call's Fun, the func, method or builtin called — or nil.
func objOf(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// funcDecl returns the declaration of the method recv.name of pkg, or nil.
func funcDecl(p *checkedPkg, recv, name string) *ast.FuncDecl {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Recv != nil {
				if fn := p.info.Defs[fd.Name].(*types.Func); strings.HasSuffix(fn.FullName(), "."+recv+")."+name) {
					return fd
				}
			}
		}
	}
	return nil
}

// noSessionMap: no map in the stream package's non-test code holds sessions
// beside the store.
func noSessionMap(mod *module) []string {
	var bad []string
	for id, obj := range mod.pkgs[streamPkg].info.Defs {
		if obj == nil {
			continue
		}
		if mt, ok := obj.Type().Underlying().(*types.Map); ok {
			elem := mt.Elem()
			if ptr, ok := elem.(*types.Pointer); ok {
				elem = ptr.Elem()
			}
			if named, ok := elem.(*types.Named); ok && named.Obj().Name() == "bankSession" {
				bad = append(bad, fmt.Sprintf("%s: %s is a %s beside the store", mod.fset.Position(id.Pos()), id.Name, obj.Type()))
			}
		}
	}
	return bad
}

// packedOnce: the shard step and the journal step call neither BankKey nor
// AppendWireRecord; the event was packed once, at ingest.
func packedOnce(mod *module) []string {
	var bad []string
	p := mod.pkgs[streamPkg]
	for _, target := range [][2]string{{"shardState", "step"}, {"Engine", "journalBatch"}} {
		fd := funcDecl(p, target[0], target[1])
		if fd == nil {
			bad = append(bad, fmt.Sprintf("the pack gate's target (*%s).%s is gone", target[0], target[1]))
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn, ok := objOf(p.info, call.Fun).(*types.Func); ok && (fn.Name() == "BankKey" || fn.Name() == "AppendWireRecord") {
					bad = append(bad, fmt.Sprintf("%s: %s calls %s, packing the event again", mod.fset.Position(call.Pos()), target[1], fn.FullName()))
				}
			}
			return true
		})
	}
	return bad
}

// oneFold: recover appears only in shard.go (the step) and shadow.go (the
// twin's own), and shard.go takes no sync lock, starts no goroutine and reads
// the clock only inside `if h != nil` for the *obs.Histogram h its caller
// passes.
func oneFold(mod *module) []string {
	var bad []string
	p := mod.pkgs[streamPkg]
	sawShard := false
	for _, f := range p.files {
		base := filepath.Base(mod.fset.File(f.Pos()).Name())
		sawShard = sawShard || base == "shard.go"
		var stack []ast.Node // the path from f to the node visited
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			pos := mod.fset.Position(n.Pos())
			switch n := n.(type) {
			case *ast.CallExpr:
				obj := objOf(p.info, n.Fun)
				if b, ok := obj.(*types.Builtin); ok && b.Name() == "recover" && base != "shard.go" && base != "shadow.go" {
					bad = append(bad, fmt.Sprintf("%s: a recover outside the shard step", pos))
				}
				fn, ok := obj.(*types.Func)
				if base != "shard.go" || !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !slices.Contains([]string{"Now", "Since", "Until"}, fn.Name()) {
					break
				}
				guarded := false
				for i := len(stack) - 2; i >= 0; i-- {
					if ifs, ok := stack[i].(*ast.IfStmt); ok && stack[i+1] == ifs.Body {
						guarded = histogramNilCheck(p.info, ifs.Cond)
						break
					}
				}
				if !guarded {
					bad = append(bad, fmt.Sprintf("%s: shard.go reads the clock (time.%s) outside a histogram's nil check", pos, fn.Name()))
				}
			case *ast.GoStmt:
				if base == "shard.go" {
					bad = append(bad, fmt.Sprintf("%s: shard.go starts a goroutine", pos))
				}
			case *ast.Ident:
				if obj := p.info.Uses[n]; base == "shard.go" && obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
					bad = append(bad, fmt.Sprintf("%s: shard.go uses sync.%s", pos, obj.Name()))
				}
			}
			return true
		})
	}
	if !sawShard {
		bad = append(bad, "the fold gate's target stream/shard.go is gone")
	}
	return bad
}

// histogramNilCheck reports whether cond is `h != nil` for an *obs.Histogram h.
func histogramNilCheck(info *types.Info, cond ast.Expr) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	if _, ok := objOf(info, be.Y).(*types.Nil); !ok {
		return false
	}
	h := objOf(info, be.X)
	return h != nil && types.TypeString(h.Type(), nil) == "*cordial/internal/obs.Histogram"
}

// quietStrategyOneMethod: core.QuietStrategy declares one method of its own,
// ResumeSession.
func quietStrategyOneMethod(mod *module) []string {
	obj := mod.pkgs["cordial/internal/core"].pkg.Scope().Lookup("QuietStrategy")
	if obj == nil {
		return []string{"the quiet-tier gate's target core.QuietStrategy is gone"}
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok || iface.NumExplicitMethods() != 1 || iface.ExplicitMethod(0).Name() != "ResumeSession" {
		return []string{fmt.Sprintf("%s: core.QuietStrategy is %s, want ResumeSession alone besides Strategy", mod.fset.Position(obj.Pos()), obj.Type().Underlying())}
	}
	return nil
}

// columnizeOnlyInGBDT: classification training transposes nothing; only the
// boosting trainer in gbdt.go calls columnize.
func columnizeOnlyInGBDT(mod *module) []string {
	p := mod.pkgs["cordial/internal/mltree"]
	obj := p.pkg.Scope().Lookup("columnize")
	if obj == nil {
		return []string{"the coded-matrix gate's target mltree.columnize is gone"}
	}
	var bad []string
	for id, used := range p.info.Uses {
		if pos := mod.fset.Position(id.Pos()); used == obj && filepath.Base(pos.Filename) != "gbdt.go" {
			bad = append(bad, fmt.Sprintf("%s: columnize called outside the boosting trainer", pos))
		}
	}
	return bad
}
