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
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// reachKeep lists the declarations under internal/ that only tests reach, on
// purpose. Every other declaration there must be reachable from a program.
var reachKeep = map[string]string{
	"(*stream.Engine).Sessions":      "the session view every equivalence suite compares",
	"obs.ValidateLine":               "FuzzParseText's reference exposition grammar",
	"mltree.CodingPasses":            "the one-coding-pass invariant core's training tests count",
	"(*hbm.Profile).Derive":          "the wide-row profile of TestStoreLimitFallbacks",
	"(*xrand.RNG).Perm":              "the shuffled views of mltree's view tests and SampleInts' reference draw",
	"obs.NewFakeClock":               "the clock the cluster, lifecycle, stream and registry tests move by hand",
	"(*obs.FakeClock).Advance":       "how those tests make a heartbeat, a sweep, a cooldown or a Drain budget pass",
	"(*obs.FakeClock).BlockUntil":    "keeps those tests from advancing before the code under test has armed its ticker",
	"(*wal.FaultFS).PowerCut":        "the power cut of the crash property and the PowerCut tests",
	"wal.NewFaultFS":                 faultDisk,
	"(*wal.FaultFS).LimitWriteBytes": faultDisk,
	"(*wal.FaultFS).FailSyncAfter":   faultDisk,
	"(*wal.FaultFS).FailOpens":       faultDisk,
	"(*wal.FaultFS).FailTruncates":   faultDisk,
	"(*wal.FaultFS).FailRemoves":     faultDisk,
	"(*wal.FaultFS).Disarm":          faultDisk,
	"(*wal.FaultFS).Faults":          faultDisk,
	"mcelog.FromEvents":              "how the cluster, stream and end-to-end tests write a batch of events as a request body",
	"obs.ParseText":                  "the exposition parser the obs and stream tests read a /metrics payload back with",
	"(*obs.Snapshot).Quantile":       "the histogram estimate those tests compare with the in-process one",
}

// faultDisk keeps wal.FaultFS's constructor and knobs: no program injects disk faults.
const faultDisk = "the disk of the crash property and of the fleet simulation, and its armed faults"

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
		replacedBy: "the dataset's value codes, shared by every fit of every learner",
		names:      []string{"columnize"},
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
	{
		gate: "one event-body reader", deletedBy: "One event-body reader behind every door",
		replacedBy: "mcelog.BodyReader, read by ReadLog and by the one ingest handler of the serve node and of the router; stream.IngestResult's Note and EndBody",
		names:      []string{"ReadJSONL", "maxRouterErrors"},
		check:      bodyDecodedInMcelog,
	},
	{
		gate: "one clock", deletedBy: "One clock, no polling",
		replacedBy: "obs.Clock, held by stream.Config, cluster.CPConfig, cluster.RouterConfig and registry.Options; every ticker, timer and backoff of the serving path is armed on it",
		check:      oneClock,
	},
	{
		gate: "one event order", deletedBy: "Fleets merged, not re-sorted",
		replacedBy: "mcelog.SortEvents on each simulated bank's own slice and mcelog.Merge of the sorted runs into the fleet log",
		check:      oneEventOrder,
	},
	{
		gate: "one crash oracle", deletedBy: "One fault FS, one crash oracle",
		replacedBy: "stream's TestCrashProperty and its Batched, Trained, Swap and DDR5 flavors: seeded schedules with power cuts over one wal.FaultFS",
		check: noTestsNamed("TestCrashRecoveryEquivalence", "TestCrashRecoveryEquivalenceBatched",
			"TestCrashRecoveryEquivalenceTrained", "TestCrashRecoveryEquivalenceDDR5", "TestCrashDuringSwapEquivalence"),
	},
	{
		gate: "one fault FS", deletedBy: "One fault FS, one crash oracle",
		replacedBy: "wal.FaultFS: its armed faults, its OnOp hook and its power cuts",
		check:      noTestFS,
	},
	{
		gate: "no per-field struct copies", deletedBy: "Generation pays only for what its caller reads",
		replacedBy: "pointer receivers on every hbm.Layout method and on hbm.Geometry.dim, and pointers to the generator's Config in faultsim",
		check:      noPerFieldCopies,
	},
	{
		gate: "prune only what the journal no longer needs", deletedBy: "A promoted bank in six allocations, not twelve",
		replacedBy: "stream.Engine.NeededVersions, the versions registry.Registry.Prune keeps",
		names:      []string{"PinnedVersionFloor"},
	},
	{
		gate: "one row-set type", deletedBy: "A bank's row marks as runs held in its slot",
		replacedBy: "rowset.Runs, the engine's UER rows and spared rows of a bank and a shadow twin's spared rows",
		names:      []string{"rowMark", "rowCounts"},
		check:      runsAlone,
	},
	{
		gate: "one row-table type", deletedBy: "A promoted bank in one allocation",
		replacedBy: "rowset.Table, the feature state's per-row table with its first 16 entries inline",
		check:      rowsetLacks("InsertAt", "reserve"),
	},
	{
		gate: "one verdict oracle", deletedBy: "One verdict oracle",
		replacedBy: "stream's FuzzBankHistory: a bank's actions and stats under every serving form equal the offline per-bank replay; TestOnlineOfflineEquivalence, its DDR5 twin and TestShardStepInterleavings run its check over inputs of their flavor",
		check:      noTestsNamed("assertOnlineOfflineEquivalent", "assertSameActionSet", "addActs"),
	},
	{
		gate: "one stage instrument", deletedBy: "One stage instrument on one clock",
		replacedBy: "obs.Stage: the decode, queue_wait, wal_append, fsync and fold series of cordial_stage_seconds, one occurrence in 64 timed on the registry's obs.Clock",
		names:      []string{"DecodeTimer", "ObserveSince", "processDur", "ingestWaitDur", "binDecode", "appendDur", "fsyncDur"},
		check:      noWallClock,
	},
	{
		gate: "examples as Example functions", deletedBy: "One stage instrument on one clock",
		replacedBy: "ExampleNewStreamEngine in the root package, which feeds IngestBatch in chunks of Log.Events",
		names:      []string{"IngestLog"},
		check:      logLacksAt,
	},
	{
		gate: "one session contract", deletedBy: "One session contract",
		replacedBy: "core.Session (Decide, OnEvent, Class, StateFootprint, EncodeState) and core.Strategy (Name, NewSession, RestoreSession), every strategy implementing both; core.QuietStrategy, the one optional promise",
		names:      []string{"BufferedSession", "InstrumentedSession", "DurableSession", "DurableStrategy", "resolveDurable"},
		check:      oneSessionContract,
	},
	{
		gate: "one explicit topology", deletedBy: "One explicit topology",
		replacedBy: "the `*hbm.Profile` each caller is handed",
		names:      []string{"ActiveProfile", "SetActiveProfile", "ActivateProfile", "heapOnly"},
		check:      hbm2eOnlyInBench,
	},
	{
		gate: "one booster grower", deletedBy: "One input for every learner",
		replacedBy: "mltree's boostGrower over the coded matrix: GBDT's exact mode and HistGBDT's histogram mode",
		names: []string{"presortByFeature", "radixSortPairs", "partitioner", "newPartitioner", "regTree",
			"binner", "newBinner", "histGrower", "leafHist", "newLeafHist", "leafState", "navigateBinned"},
		check: boostersReadCodes,
	},
	{
		gate: "scenarios are Go values", deletedBy: "One fleet harness on one fake clock",
		replacedBy: "chaos.NewScenario and chaos.Scenarios, the checked-in scenarios as Go values that cordial-chaos ran by name (both since deleted: see \"one real-binary smoke\")",
		names:      []string{"parseYAML", "yamlParser", "ParseScenario", "LoadScenario", "decoder"},
		check:      noScenarioFiles,
	},
	{
		gate: "failures injected in process", deletedBy: "Fault injection moves in process",
		replacedBy: "the fleet simulation's disk and router faults and the tests of the code each deleted verb broke; SIGKILL and poison went to TestCLIClusterFailover",
		names: []string{"FaultSpec", "ParseFaultSpec", "StartupSpec", "startNodes", "ActRestartNode", "ActDiskFault",
			"ActClearFault", "ActClockSkew", "ActPartitionRouter", "ActRetrain", "ActPromote"},
		check: serveArmsNoFaults,
	},
	{
		gate: "one real-binary smoke", deletedBy: "One real-binary smoke",
		replacedBy: "TestCLIClusterFailover's four checks (verdict loss, poison accepted, recovery, availability) over Daemon in internal/clitest's test files, and the fleet simulation's shrunk schedules",
		names:      []string{"Scenario", "BuildPlan"},
		check:      noChaosHarness,
	},
}

// noChaosHarness: neither internal/chaos nor cmd/cordial-chaos holds Go again.
func noChaosHarness(mod *module) []string {
	var bad []string
	for _, path := range []string{"cordial/internal/chaos", "cordial/cmd/cordial-chaos"} {
		if p := mod.pkgs[path]; p != nil && len(p.files) > 0 {
			bad = append(bad, path+" is a package again")
		}
	}
	return bad
}

// serveArmsNoFaults: cordial-serve defines no faultfs flag and names no
// SIGUSR2, the signal that armed it.
func serveArmsNoFaults(mod *module) []string {
	pkg := mod.pkgs["cordial/cmd/cordial-serve"]
	if pkg == nil {
		return []string{"the in-process faults gate's target cmd/cordial-serve is gone"}
	}
	var bad []string
	for _, f := range pkg.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Value == `"faultfs"` {
				bad = append(bad, fmt.Sprintf("%s: cordial-serve defines a faultfs flag", mod.fset.Position(n.Pos())))
			} else if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "SIGUSR2" {
				bad = append(bad, fmt.Sprintf("%s: cordial-serve names syscall.SIGUSR2", mod.fset.Position(n.Pos())))
			}
			return true
		})
	}
	return bad
}

// noScenarioFiles: the scenarios directory holds no file.
func noScenarioFiles(*module) []string {
	var bad []string
	entries, _ := os.ReadDir("scenarios")
	for _, e := range entries {
		bad = append(bad, "scenarios/"+e.Name()+" is a scenario file")
	}
	return bad
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
// twin's own), and shard.go takes no sync lock and starts no goroutine.
func oneFold(mod *module) []string {
	var bad []string
	p := mod.pkgs[streamPkg]
	sawShard := false
	for _, f := range p.files {
		base := filepath.Base(mod.fset.File(f.Pos()).Name())
		sawShard = sawShard || base == "shard.go"
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			pos := mod.fset.Position(n.Pos())
			switch n := n.(type) {
			case *ast.CallExpr:
				if b, ok := objOf(p.info, n.Fun).(*types.Builtin); ok && b.Name() == "recover" && base != "shard.go" && base != "shadow.go" {
					bad = append(bad, fmt.Sprintf("%s: a recover outside the shard step", pos))
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

// noWallClock: stream, mcelog and wal read no time of their own (time.Now,
// time.Since) — the stages time on the registry's obs.Clock — and no program
// names one of the six latency families the stage family replaced.
func noWallClock(mod *module) []string {
	var bad []string
	for _, path := range []string{streamPkg, "cordial/internal/mcelog", "cordial/internal/wal"} {
		for id, obj := range mod.pkgs[path].info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" && (fn.Name() == "Now" || fn.Name() == "Since") {
				bad = append(bad, fmt.Sprintf("%s: time.%s beside the registry's obs.Clock", mod.fset.Position(id.Pos()), fn.Name()))
			}
		}
	}
	families := []string{"cordial_http_decode_seconds", "cordial_http_bin_decode_seconds", "cordial_ingest_wait_seconds",
		"cordial_process_seconds", "cordial_wal_append_seconds", "cordial_wal_fsync_seconds"}
	for _, path := range mod.paths {
		for _, f := range mod.pkgs[path].files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING &&
					slices.ContainsFunc(families, func(name string) bool { return strings.Contains(lit.Value, name) }) {
					bad = append(bad, fmt.Sprintf("%s: %s names a latency family the stages replaced", mod.fset.Position(lit.Pos()), lit.Value))
				}
				return true
			})
		}
	}
	return bad
}

// logLacksAt: mcelog.Log has no At method; its events are read through Events.
func logLacksAt(mod *module) []string {
	obj := mod.pkgs["cordial/internal/mcelog"].pkg.Scope().Lookup("Log")
	if obj == nil {
		return []string{"the examples gate's target mcelog.Log is gone"}
	}
	if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, obj.Pkg(), "At"); m != nil {
		return []string{fmt.Sprintf("%s: mcelog.Log.At is back", mod.fset.Position(m.Pos()))}
	}
	return nil
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

// oneSessionContract: core declares no Decide func and three interfaces,
// Strategy, Session and QuietStrategy (ClassifiedSession is an alias), and
// stream's non-test code type-asserts or switches to no core interface but
// QuietStrategy.
func oneSessionContract(mod *module) []string {
	var bad []string
	core := mod.pkgs["cordial/internal/core"].pkg
	if obj := core.Scope().Lookup("Decide"); obj != nil {
		bad = append(bad, fmt.Sprintf("%s: core.Decide is back", mod.fset.Position(obj.Pos())))
	}
	var ifaces []string
	for _, name := range core.Scope().Names() {
		if tn, ok := core.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && types.IsInterface(tn.Type()) {
			ifaces = append(ifaces, name)
		}
	}
	if want := []string{"QuietStrategy", "Session", "Strategy"}; !slices.Equal(ifaces, want) {
		bad = append(bad, fmt.Sprintf("core declares the interfaces %v, want %v", ifaces, want))
	}
	p := mod.pkgs[streamPkg]
	asserted := func(e ast.Expr) {
		if tn, ok := objOf(p.info, e).(*types.TypeName); ok && tn.Pkg() == core && types.IsInterface(tn.Type()) && tn.Name() != "QuietStrategy" {
			bad = append(bad, fmt.Sprintf("%s: stream asserts to core.%s", mod.fset.Position(e.Pos()), tn.Name()))
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				asserted(n.Type) // nil in a type switch's guard
			case *ast.CaseClause: // an expression switch's values name no type
				for _, e := range n.List {
					asserted(e)
				}
			}
			return true
		})
	}
	return bad
}

// rowsetLacks returns the check that rowset declares none of names.
func rowsetLacks(names ...string) func(*module) []string {
	return func(mod *module) []string {
		var bad []string
		for _, name := range names {
			if obj := mod.pkgs["cordial/internal/rowset"].pkg.Scope().Lookup(name); obj != nil {
				bad = append(bad, fmt.Sprintf("%s: rowset declares %s", mod.fset.Position(obj.Pos()), name))
			}
		}
		return bad
	}
}

// runsAlone: rowset declares no Set, and the engine's bankSession keeps its
// rows in rowset.Runs alone — no slice field and no find or mark method beside
// them.
func runsAlone(mod *module) []string {
	bad := rowsetLacks("Set")(mod)
	obj := mod.pkgs[streamPkg].pkg.Scope().Lookup("bankSession")
	if obj == nil {
		return append(bad, "the row-set gate's target stream.bankSession is gone")
	}
	st := obj.Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if _, ok := f.Type().Underlying().(*types.Slice); ok {
			bad = append(bad, fmt.Sprintf("%s: bankSession.%s is a table beside the run sets", mod.fset.Position(f.Pos()), f.Name()))
		}
	}
	for _, name := range []string{"find", "mark"} {
		if m, _, _ := types.LookupFieldOrMethod(types.NewPointer(obj.Type()), true, obj.Pkg(), name); m != nil {
			bad = append(bad, fmt.Sprintf("%s: bankSession.%s is back", mod.fset.Position(m.Pos()), name))
		}
	}
	return bad
}

// boostersReadCodes: no mltree booster reads float rows. Dataset has no rows
// method, and gbdt.go, histgbdt.go and boost.go use neither Dataset.Features
// nor what makes rows from codes (Materialize, rowsInto).
func boostersReadCodes(mod *module) []string {
	p, bad, seen := mod.pkgs["cordial/internal/mltree"], []string(nil), 0
	ds, floats := types.NewPointer(p.pkg.Scope().Lookup("Dataset").Type()), map[types.Object]bool{}
	for _, name := range []string{"rows", "Features", "Materialize", "rowsInto"} {
		obj, _, _ := types.LookupFieldOrMethod(ds, true, p.pkg, name)
		if (obj != nil) == (name == "rows") {
			bad = append(bad, fmt.Sprintf("the booster gate: Dataset.%s is %v", name, obj))
		}
		floats[obj] = obj != nil
	}
	for _, f := range p.files {
		if name := filepath.Base(mod.fset.Position(f.Pos()).Filename); name != "gbdt.go" && name != "histgbdt.go" && name != "boost.go" {
			continue
		}
		seen++
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && floats[p.info.Uses[id]] {
				bad = append(bad, fmt.Sprintf("%s: a booster reads Dataset.%s", mod.fset.Position(id.Pos()), id.Name))
			}
			return true
		})
	}
	if seen != 3 {
		bad = append(bad, fmt.Sprintf("the booster gate's target files: %d of gbdt.go, histgbdt.go and boost.go", seen))
	}
	return bad
}

// bodyDecodedInMcelog: outside internal/mcelog no program (bench/'s probes
// aside) calls the frame decoder or a record decoder of its own; event bodies
// are read through mcelog.BodyReader.
func bodyDecodedInMcelog(mod *module) []string {
	const mcelogPkg = "cordial/internal/mcelog"
	var bad []string
	var targets []types.Object
	scope := mod.pkgs[mcelogPkg].pkg.Scope()
	for _, name := range []string{"NewFrameDecoder", "FrameDecoder.Next", "WireFrame.EventChecked", "ParseJSONEvent"} {
		obj := scope.Lookup(name)
		if typ, method, ok := strings.Cut(name, "."); ok && scope.Lookup(typ) != nil {
			obj, _, _ = types.LookupFieldOrMethod(scope.Lookup(typ).Type(), true, mod.pkgs[mcelogPkg].pkg, method)
		}
		if obj == nil {
			bad = append(bad, fmt.Sprintf("the body-reader gate's target mcelog.%s is gone", name))
			continue
		}
		targets = append(targets, obj)
	}
	for _, path := range mod.paths {
		if path == mcelogPkg || strings.HasPrefix(path, "cordial/bench") {
			continue
		}
		for id, obj := range mod.pkgs[path].info.Uses {
			if slices.Contains(targets, obj) {
				bad = append(bad, fmt.Sprintf("%s: %s decodes an event body outside mcelog.BodyReader", mod.fset.Position(id.Pos()), id.Name))
			}
		}
	}
	return bad
}

// hbm2eOnlyInBench: the entry points bench/ compiles against that mean hbm2e
// until ROADMAP item 15 have no caller outside bench/, and every stream.Config
// literal outside bench/ names its Profile and leaves the Geometry to it.
func hbm2eOnlyInBench(mod *module) []string {
	var bad []string
	var targets []types.Object
	for _, name := range []string{"hbm.Address.BankKey", "hbm.BankAddress.BankKey", "mcelog.NewFrameDecoder", "mcelog.NewFrameEncoder",
		"mcelog.AppendWireRecord", "mcelog.ParseJSONEvent", "trace.DefaultSpec", "sparing.NewEngine", "core.EvaluatePrediction"} {
		pkg, rest, _ := strings.Cut(name, ".")
		p := mod.pkgs["cordial/internal/"+pkg].pkg
		obj := p.Scope().Lookup(rest)
		if typ, method, ok := strings.Cut(rest, "."); ok && p.Scope().Lookup(typ) != nil {
			obj, _, _ = types.LookupFieldOrMethod(p.Scope().Lookup(typ).Type(), true, p, method)
		}
		if obj == nil {
			bad = append(bad, fmt.Sprintf("the hbm2e gate's target %s is gone", name))
			continue
		}
		targets = append(targets, obj)
	}
	config := mod.pkgs[streamPkg].pkg.Scope().Lookup("Config").Type()
	for _, path := range mod.paths {
		if strings.HasPrefix(path, "cordial/bench") {
			continue
		}
		p := mod.pkgs[path]
		for id, obj := range p.info.Uses {
			if slices.Contains(targets, obj) {
				bad = append(bad, fmt.Sprintf("%s: %s means hbm2e outside bench/", mod.fset.Position(id.Pos()), id.Name))
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || lit.Type == nil {
					return true
				}
				if tn, _ := objOf(p.info, lit.Type).(*types.TypeName); tn == nil || !types.Identical(types.Unalias(tn.Type()), config) {
					return true
				}
				keys := map[string]bool{}
				for _, e := range lit.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						keys[kv.Key.(*ast.Ident).Name] = true
					}
				}
				if !keys["Profile"] || keys["Geometry"] {
					bad = append(bad, fmt.Sprintf("%s: a stream.Config outside bench/ without a Profile, or with a Geometry", mod.fset.Position(lit.Pos())))
				}
				return true
			})
		}
	}
	return bad
}

// oneClock: the serving packages call none of the time package's timers or

// sleeps (they arm them on their obs.Clock), and no struct under internal/
// holds a func() time.Time beside it.
func oneClock(mod *module) []string {
	var bad []string
	timers := []string{"Sleep", "After", "AfterFunc", "NewTicker", "NewTimer", "Tick"}
	for _, path := range []string{"cordial/internal/cluster", "cordial/internal/lifecycle", streamPkg, "cordial/internal/registry", "cordial/cmd/cordial-serve"} {
		p := mod.pkgs[path]
		if p == nil {
			bad = append(bad, fmt.Sprintf("the clock gate's target %s is gone", path))
			continue
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "time" &&
				fn.Type().(*types.Signature).Recv() == nil && slices.Contains(timers, fn.Name()) {
				bad = append(bad, fmt.Sprintf("%s: time.%s beside the obs.Clock", mod.fset.Position(id.Pos()), fn.Name()))
			}
		}
	}
	for _, path := range mod.paths {
		if !strings.HasPrefix(path, "cordial/internal/") {
			continue
		}
		for id, obj := range mod.pkgs[path].info.Defs {
			if v, ok := obj.(*types.Var); ok && v.IsField() && types.TypeString(v.Type(), nil) == "func() time.Time" {
				bad = append(bad, fmt.Sprintf("%s: field %s is a time source beside the obs.Clock", mod.fset.Position(id.Pos()), id.Name))
			}
		}
	}
	return bad
}

// oneEventOrder: no program sorts events with the reflective sort.Slice or
// sort.SliceStable (mcelog.SortEvents is the event order), and the fleet
// generator in internal/trace never calls (*mcelog.Log).Sort: its logs are
// merges of runs sorted once per bank.
func oneEventOrder(mod *module) []string {
	const mcelogPkg = "cordial/internal/mcelog"
	generators := []string{"cordial/internal/trace"}
	var bad []string
	logType := mod.pkgs[mcelogPkg].pkg.Scope().Lookup("Log")
	if logType == nil {
		return []string{"the event-order gate's target mcelog.Log is gone"}
	}
	logSort, _, _ := types.LookupFieldOrMethod(types.NewPointer(logType.Type()), false, logType.Pkg(), "Sort")
	if logSort == nil {
		bad = append(bad, "the event-order gate's target (*mcelog.Log).Sort is gone")
	}
	for _, path := range generators {
		if mod.pkgs[path] == nil {
			bad = append(bad, fmt.Sprintf("the event-order gate's target %s is gone", path))
		}
	}
	for _, path := range mod.paths {
		p := mod.pkgs[path]
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				pos := mod.fset.Position(call.Pos())
				fn, ok := objOf(p.info, call.Fun).(*types.Func)
				switch {
				case !ok:
				case fn == logSort && slices.Contains(generators, path):
					bad = append(bad, fmt.Sprintf("%s: %s re-sorts a fleet log", pos, path))
				case fn.Pkg() != nil && fn.Pkg().Path() == "sort" && (fn.Name() == "Slice" || fn.Name() == "SliceStable"):
					switch arg := objOf(p.info, call.Args[0]); {
					case arg == nil:
						bad = append(bad, fmt.Sprintf("%s: sort.%s over an expression the gate cannot type; sort a named slice", pos, fn.Name()))
					case types.TypeString(arg.Type().Underlying(), nil) == "[]"+mcelogPkg+".Event":
						bad = append(bad, fmt.Sprintf("%s: sort.%s over []mcelog.Event", pos, fn.Name()))
					}
				}
				return true
			})
		}
	}
	return bad
}

// noPerFieldCopies: no hbm.Layout method and not hbm.Geometry.dim takes its
// receiver by value, so the address checks that consult them once per field
// copy no 304-byte layout and no 96-byte geometry; and no statement in
// internal/faultsim copies the generator's Config, or a struct inside it, out
// of its cfg field by value.
func noPerFieldCopies(mod *module) []string {
	const hbmPkg, faultsimPkg = "cordial/internal/hbm", "cordial/internal/faultsim"
	var bad []string
	named := func(pkg, name string) *types.Named {
		if p := mod.pkgs[pkg]; p != nil {
			if obj, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok {
				n, _ := obj.Type().(*types.Named)
				return n
			}
		}
		bad = append(bad, fmt.Sprintf("the struct-copy gate's target %s.%s is gone", pkg, name))
		return nil
	}
	valueRecv := func(m *types.Func) {
		if _, ok := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); !ok {
			bad = append(bad, fmt.Sprintf("%s: %s takes its receiver by value", mod.fset.Position(m.Pos()), m.FullName()))
		}
	}
	if layout := named(hbmPkg, "Layout"); layout != nil {
		if layout.NumMethods() == 0 {
			bad = append(bad, "the struct-copy gate's target hbm.Layout has no methods")
		}
		for i := range layout.NumMethods() {
			valueRecv(layout.Method(i))
		}
	}
	if geo := named(hbmPkg, "Geometry"); geo != nil {
		var dim *types.Func
		for i := range geo.NumMethods() {
			if m := geo.Method(i); m.Name() == "dim" {
				dim = m
			}
		}
		if dim == nil {
			bad = append(bad, "the struct-copy gate's target hbm.Geometry.dim is gone")
		} else {
			valueRecv(dim)
		}
	}
	gen := named(faultsimPkg, "Generator")
	if gen == nil {
		return bad
	}
	var cfg types.Object
	if st, ok := gen.Underlying().(*types.Struct); ok {
		for i := range st.NumFields() {
			if f := st.Field(i); f.Name() == "cfg" {
				cfg = f
			}
		}
	}
	if cfg == nil {
		return append(bad, "the struct-copy gate's target faultsim.Generator.cfg is gone")
	}
	p := mod.pkgs[faultsimPkg]
	// copied reports whether e reads cfg, or a struct field inside it, by value.
	copied := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if _, ok := p.info.Uses[sel.Sel].Type().Underlying().(*types.Struct); !ok {
			return false
		}
		for ok {
			if p.info.Uses[sel.Sel] == cfg {
				return true
			}
			sel, ok = ast.Unparen(sel.X).(*ast.SelectorExpr)
		}
		return false
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var rhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				rhs = n.Rhs
			case *ast.ValueSpec:
				rhs = n.Values
			}
			for _, e := range rhs {
				if copied(e) {
					bad = append(bad, fmt.Sprintf("%s: a value copy of the generator's config", mod.fset.Position(e.Pos())))
				}
			}
			return true
		})
	}
	return bad
}

// testDecls calls fn with every top-level declaration of the root package's
// and internal/'s _test.go files, whatever their build tags, and returns what
// it reports; finding no test file is reported too.
func testDecls(fn func(pos token.Position, pkg string, d ast.Decl) []string) (bad []string) {
	fset := token.NewFileSet()
	names, _ := filepath.Glob("*_test.go")
	filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if strings.HasSuffix(p, "_test.go") {
			names = append(names, p)
		}
		return err
	})
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return append(bad, err.Error())
		}
		for _, d := range f.Decls {
			bad = append(bad, fn(fset.Position(d.Pos()), f.Name.Name, d)...)
		}
	}
	if len(names) == 0 {
		bad = append(bad, "the test-file gates read no test file")
	}
	return bad
}

// noTestsNamed is the check that no test file declares a func of names: the
// tests a replacement made redundant, and their helpers, stay deleted.
func noTestsNamed(names ...string) func(*module) []string {
	return func(*module) []string {
		return testDecls(func(pos token.Position, _ string, d ast.Decl) []string {
			if fd, ok := d.(*ast.FuncDecl); ok && slices.Contains(names, fd.Name.Name) {
				return []string{fmt.Sprintf("%s declares %s", pos, fd.Name.Name)}
			}
			return nil
		})
	}
}

// noTestFS: no test wraps a filesystem of its own, a type embedding wal.FS.
func noTestFS(*module) []string {
	return testDecls(func(pos token.Position, pkg string, d ast.Decl) (bad []string) {
		ast.Inspect(d, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, f := range st.Fields.List {
					if sel, ok := f.Type.(*ast.SelectorExpr); len(f.Names) == 0 && (ok && sel.Sel.Name == "FS" && fmt.Sprint(sel.X) == "wal" || fmt.Sprint(f.Type) == "FS" && pkg == "wal") {
						bad = append(bad, fmt.Sprintf("%s: a test type embeds wal.FS", pos))
					}
				}
			}
			return true
		})
		return bad
	})
}
