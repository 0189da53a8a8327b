// Command cordial-serve is the online prediction daemon: it loads (or
// self-trains) a Cordial pipeline, starts the sharded stream engine, and
// serves the ingestion API until interrupted.
//
// Usage:
//
//	cordial-serve -models models.json -addr 127.0.0.1:8080
//	cordial-serve -selftrain -seed 1 -addr 127.0.0.1:0
//
// Endpoints:
//
//	POST /v1/events        JSONL batch ingest (the cordial-gen -format jsonl shape)
//	POST /v1/events.bin    wire-frame batch ingest (a cordial-gen log file as it stands)
//	GET  /v1/actions       mitigation actions emitted so far
//	GET  /v1/banks/{addr}  one bank's session snapshot
//	GET  /healthz          liveness (process up; stays 200 under degradation)
//	GET  /readyz           readiness (503 + JSON reasons when the engine
//	                       should be rotated out of traffic)
//	GET  /statsz           ingest rate, queue depths, latency snapshots (JSON)
//	GET  /metrics          Prometheus text exposition (same instruments as /statsz)
//	GET  /debug/pprof/...  Go profiling endpoints (only with -pprof)
//
// Logs are structured (log/slog) on stdout; -log-format selects text or
// json. On SIGINT/SIGTERM the daemon stops accepting requests, drains
// every in-flight event through the engine, and logs a final stats line.
//
// With -wal-dir the daemon is crash-safe: every accepted event is journaled
// before it is acknowledged (fsync policy via -fsync), snapshots are taken
// periodically (-snapshot-interval) and on graceful shutdown, and a restart
// over the same directory recovers the exact pre-crash session state by
// restoring the newest valid snapshot and replaying the journal suffix.
//
// With -control-plane the daemon joins a cluster (see cordial-control and
// cordial-router): it registers, heartbeats, serves only the banks the
// consistent-hash ring assigns it, and takes part in session handoff when
// membership changes. On graceful shutdown it first asks the control plane
// to rebalance its banks away.
//
// Model lifecycle: with a registry directory (-registry-dir, defaulting to
// <wal-dir>/models when durability is on) the daemon serves versioned model
// artefacts. The first boot installs the -models/-selftrain pipeline as
// version 1; later boots serve whatever version the registry marks active —
// boot flags never silently downgrade a model that online retraining or an
// operator promoted. SIGHUP re-reads the -models file, installs it as a new
// version and swaps it in atomically (new banks bind it immediately;
// existing banks keep the version they started under). With -retrain the
// daemon also watches the live class mix for drift, refits from the
// journal, shadow-scores the candidate and promotes it only if its
// isolation coverage holds up; /v1/models exposes the state and manual
// promote/rollback/retrain controls.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"cordial/internal/cluster"
	"cordial/internal/core"
	"cordial/internal/hbm"
	"cordial/internal/lifecycle"
	"cordial/internal/registry"
	"cordial/internal/stream"
	"cordial/internal/trace"
	"cordial/internal/wal"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cordial-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		modelsPath = flag.String("models", "", "model path from cordial-train")
		selftrain  = flag.Bool("selftrain", false, "train a pipeline on a simulated fleet at startup (demo mode)")
		seed       = flag.Uint64("seed", 1, "selftrain simulation seed")
		trainBanks = flag.Int("train-banks", 120, "selftrain faulty-bank count")
		trees      = flag.Int("trees", 15, "selftrain ensemble size")
		shards     = flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "per-shard queue depth (0 = default)")
		policy     = flag.String("policy", "block", "full-queue ingest policy: block or drop")
		walDir     = flag.String("wal-dir", "", "durability directory: journal accepted events, snapshot sessions, recover on boot")
		snapEvery  = flag.Duration("snapshot-interval", 0, "periodic snapshot interval (0 disables; requires -wal-dir)")
		fsync      = flag.String("fsync", "always", "journal fsync policy with -wal-dir: always (concurrent appends share fsyncs) or never")
		deadLetter = flag.String("dead-letter", "", "append quarantined events (panicked processing) to this JSONL file")
		deadMaxMB  = flag.Int64("dead-letter-max-mb", 0, "rotate the dead-letter file past this many MiB (0 = default 64)")
		deadKeep   = flag.Int("dead-letter-keep", 0, "rotated dead-letter files to keep (0 = default 4, negative keeps none)")
		deadMaxAge = flag.Duration("dead-letter-max-age", 0, "additionally drop rotated dead-letter files older than this (0 = no age pruning)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		pprofOn    = flag.Bool("pprof", false, "serve Go profiling endpoints under /debug/pprof/")
		drainWait  = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown bound on draining in-flight events; logs a warning with the stranded count when it fires")
		cpURL      = flag.String("control-plane", "", "control plane base URL (http://host:port); joins this node to a cluster")
		nodeID     = flag.String("node-id", "", "stable cluster identity (default: the resolved listen address)")
		advertise  = flag.String("advertise", "", "address cluster peers reach this node at (default: the resolved listen address)")
		heartbeat  = flag.Duration("heartbeat", 2*time.Second, "cluster registration refresh interval")
		regDir     = flag.String("registry-dir", "", "versioned model registry directory (default <wal-dir>/models when -wal-dir is set)")
		retrain    = flag.Bool("retrain", false, "watch the live class mix for drift and retrain/shadow/promote online (requires -wal-dir)")
		retrainInt = flag.Duration("retrain-interval", 30*time.Second, "drift-check cadence with -retrain")
		driftP     = flag.Float64("drift-p", 0.01, "chi-square p-value below which the live class mix counts as drifted")
		topology   = flag.String("topology", hbm.HBM2E.Name, "topology profile: "+strings.Join(hbm.ProfileNames(), ", "))
	)
	flag.Parse()

	prof, err := hbm.ProfileByName(*topology)
	if err != nil {
		return err
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stdout, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stdout, nil)
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	// Validate cheap configuration before the (possibly slow) model load.
	cfg := stream.Config{
		Profile:    prof,
		Shards:     *shards,
		QueueDepth: *queue,
	}
	switch *policy {
	case "block":
		cfg.Policy = stream.IngestBlock
	case "drop":
		cfg.Policy = stream.IngestDrop
	default:
		return fmt.Errorf("unknown ingest policy %q (want block or drop)", *policy)
	}
	if *modelsPath != "" && *selftrain {
		return fmt.Errorf("-models and -selftrain are mutually exclusive")
	}
	if *modelsPath == "" && !*selftrain {
		return fmt.Errorf("need -models <path> or -selftrain")
	}
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*fsync)
		if err != nil {
			return err
		}
		cfg.Durability = stream.DurabilityConfig{Dir: *walDir, Sync: pol}
	} else if *snapEvery > 0 {
		return fmt.Errorf("-snapshot-interval requires -wal-dir")
	}
	if *regDir == "" && *walDir != "" {
		*regDir = filepath.Join(*walDir, "models")
	}
	if *retrain {
		if *walDir == "" {
			return fmt.Errorf("-retrain requires -wal-dir (the trainer refits from the journal)")
		}
	}
	cfg.DeadLetterPath = *deadLetter
	cfg.DeadLetterRotation = stream.DeadLetterRotation{
		MaxFileBytes: *deadMaxMB << 20,
		MaxFiles:     *deadKeep,
		MaxAge:       *deadMaxAge,
	}
	cfg.Logger = logger

	pipe, err := loadPipeline(logger, prof, *modelsPath, *selftrain, *seed, *trainBanks, *trees)
	if err != nil {
		return err
	}
	logModelMeta(logger, "model loaded", pipe.Meta())

	// With a registry the engine resolves models by version through it;
	// without one it pins everything to the single loaded pipeline.
	var reg *registry.Registry
	if *regDir != "" {
		reg, err = registry.Open(registry.Options{Dir: *regDir, Geometry: prof.Geometry})
		if err != nil {
			return err
		}
		if reg.Len() == 0 {
			meta, err := reg.Install(pipe, "boot")
			if err != nil {
				return err
			}
			if err := reg.Activate(meta.Version); err != nil {
				return err
			}
			logger.Info("model installed in registry", "version", meta.Version, "dir", *regDir)
		} else {
			// The registry's active pointer outranks boot flags: a model
			// promoted by online retraining (or an operator) must survive a
			// restart with stale -models/-selftrain flags.
			logger.Info("registry supersedes boot model",
				"activeVersion", reg.ActiveVersion(), "versions", reg.Len(), "dir", *regDir)
		}
		cfg.Models = reg
	} else {
		cfg.Strategy = &core.CordialStrategy{Pipeline: pipe, Geometry: prof.Geometry}
	}
	engine, err := stream.New(cfg)
	if err != nil {
		return err
	}
	if st := engine.Stats(); st.WALEnabled {
		logger.Info("recovered from durability directory",
			"sessions", st.RecoveredSessions, "events", st.RecoveredEvents,
			"dir", *walDir, "snapshotSeq", st.LastSnapshotSeq)
	}

	// Online retraining: the lifecycle manager watches drift, refits from
	// the journal and promotes through the engine's swap point. Its admin
	// surface rides the ingest API under /v1/models.
	var apiCfg stream.ServerConfig
	var mgr *lifecycle.Manager
	if *retrain {
		mgr, err = lifecycle.New(lifecycle.Config{
			Engine:      engine,
			Registry:    reg,
			Geometry:    prof.Geometry,
			Train:       trainConfig(*trees, *seed),
			Interval:    *retrainInt,
			DriftPValue: *driftP,
			Metrics:     engine.Metrics(),
			Logger:      logger,
		})
		if err != nil {
			return err
		}
		apiCfg.ModelAdmin = lifecycle.AdminFor(mgr)
		logger.Info("online retraining enabled",
			"interval", retrainInt.String(), "driftP", *driftP)
	}
	api := stream.NewServer(engine, apiCfg)

	// Periodic checkpoints bound replay time after a crash.
	var snapStop, snapDone chan struct{}
	if *snapEvery > 0 {
		snapStop, snapDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(snapDone)
			tick := engine.Config().Clock.NewTicker(*snapEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					if _, err := engine.Snapshot(); err != nil {
						logger.Error("periodic snapshot failed", "err", err)
					}
				case <-snapStop:
					return
				}
			}
		}()
	}

	// Signals are caught from before the listener opens: a SIGTERM sent as
	// soon as the daemon answers must drain it, not kill it.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved-address attribute is load-bearing: with -addr :0 the
	// "addr=" (text) / "addr": (json) field is how test harnesses and
	// wrapper scripts learn the real port.
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"shards", engine.Config().Shards,
		"policy", engine.Config().Policy.String(),
		"pprof", *pprofOn)

	// Cluster mode: the agent owns the node's ring membership and serves
	// the handoff endpoints next to the ingest API.
	var agent *cluster.Agent
	if *cpURL != "" {
		id := *nodeID
		if id == "" {
			id = ln.Addr().String()
		}
		adv := *advertise
		if adv == "" {
			adv = ln.Addr().String()
		}
		agent = cluster.NewAgent(cluster.AgentConfig{
			ControlPlane: *cpURL,
			Self:         cluster.Member{ID: id, Addr: adv, WALDir: *walDir},
			Heartbeat:    *heartbeat,
			DrainTimeout: *drainWait,
			Logger:       logger,
		}, engine, api)
		logger.Info("cluster mode", "id", id, "advertise", adv, "controlPlane", *cpURL)
	}

	root := http.Handler(api)
	if agent != nil {
		mux := http.NewServeMux()
		mux.Handle("/cluster/", agent.Handler())
		mux.Handle("/", api)
		root = mux
	}
	if *pprofOn {
		// The pprof handlers are deliberately opt-in: they expose stack
		// traces and heap contents, so they stay off unless an operator
		// asked for them.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", root)
		root = mux
	}
	srv := &http.Server{Handler: root, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The agent registers and heartbeats in the background; it needs the
	// HTTP listener live first (registration may trigger an immediate
	// handoff callback into /cluster/v1/import).
	agentCtx, stopAgent := context.WithCancel(context.Background())
	defer stopAgent()
	if agent != nil {
		go func() {
			if err := agent.Run(agentCtx); err != nil && !errors.Is(err, context.Canceled) {
				logger.Error("cluster agent stopped", "err", err)
			}
		}()
	}

	mgrCtx, stopMgr := context.WithCancel(context.Background())
	defer stopMgr()
	mgrDone := make(chan struct{})
	if mgr != nil {
		go func() {
			defer close(mgrDone)
			mgr.Run(mgrCtx)
		}()
	} else {
		close(mgrDone)
	}

	stopSnapshots := func() {
		if snapStop != nil {
			close(snapStop)
			<-snapDone
			snapStop = nil
		}
	}

serve:
	for {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Hot model reload: re-read the -models artefact and swap it
				// in through the same path online promotion uses.
				if err := reloadModel(logger, engine, reg, *modelsPath); err != nil {
					logger.Error("model reload failed", "err", err)
				}
				continue
			}
			logger.Info("shutting down", "signal", s.String())
			break serve
		case err := <-errc:
			stopMgr()
			stopSnapshots()
			engine.Close()
			return err
		}
	}

	// Graceful shutdown. In cluster mode, first hand this node's banks to
	// the survivors — the control plane calls back into the still-running
	// HTTP listener to export them — then stop intake, drain and checkpoint.
	if agent != nil {
		if err := agent.Leave(); err != nil {
			logger.Warn("cluster leave failed; banks fail over via takeover instead", "err", err)
		}
		stopAgent()
	}
	// Stop the retrainer before draining so no swap or registry write races
	// the final snapshot.
	stopMgr()
	<-mgrDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Error("http shutdown failed", "err", err)
	}
	stopSnapshots()
	// Bounded drain: every accepted event still flows through its session,
	// up to -drain-timeout. Events stranded past the bound are lost from
	// memory (the journal still has them when durability is on).
	if err := engine.Drain(*drainWait); err != nil {
		st := engine.Stats()
		logger.Warn("drain timed out; in-flight events stranded",
			"stranded", st.Ingested-st.Processed,
			"timeout", drainWait.String(), "err", err)
	}
	// With durability on, checkpoint everything processed so far so the next
	// boot restores instead of replaying the whole journal.
	if *walDir != "" {
		if seq, err := engine.Snapshot(); err != nil {
			logger.Error("final snapshot failed", "err", err)
		} else {
			logger.Info("snapshot written", "seq", seq)
		}
	}
	engine.Close()
	api.AwaitDrained()
	st := engine.Stats()
	logger.Info("drained",
		"ingested", st.Ingested, "processed", st.Processed,
		"sessions", st.SessionsLive, "actions", st.ActionsEmitted, "dropped", st.Dropped)
	return nil
}

// trainConfig is the ensemble configuration online retraining refits with.
func trainConfig(trees int, seed uint64) core.Config {
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Params.Trees = trees
	cfg.Seed = seed
	return cfg
}

// logModelMeta reports a model's provenance (who trained it, on what, when)
// so operators can tell from the boot log which artefact is actually live.
func logModelMeta(logger *slog.Logger, msg string, meta *core.ModelMeta) {
	if meta == nil {
		logger.Info(msg, "meta", "none")
		return
	}
	attrs := []any{
		"events", meta.EventCount,
		"banks", meta.BankCount,
		"trees", meta.Params.Trees,
	}
	if !meta.TrainedAt.IsZero() {
		attrs = append(attrs, "trainedAt", meta.TrainedAt.UTC().Format(time.RFC3339))
	}
	if len(meta.ClassMix) > 0 {
		attrs = append(attrs, "classMix", meta.ClassMix)
	}
	logger.Info(msg, attrs...)
}

// reloadModel (SIGHUP) re-reads the -models artefact, installs it as a new
// registry version and swaps it in: new banks bind it immediately, existing
// banks keep the version they were born under. Same ordering as online
// promotion — journal the engine swap first, then move the registry's
// active pointer.
func reloadModel(logger *slog.Logger, engine *stream.Engine, reg *registry.Registry, modelsPath string) error {
	if modelsPath == "" {
		return fmt.Errorf("reload needs -models (self-trained models have no file to re-read)")
	}
	if reg == nil {
		return fmt.Errorf("reload needs a model registry (-registry-dir or -wal-dir)")
	}
	pipe, err := loadPipeline(logger, engine.Config().Profile, modelsPath, false, 0, 0, 0)
	if err != nil {
		return err
	}
	meta, err := reg.Install(pipe, "sighup")
	if err != nil {
		return err
	}
	if _, err := engine.SwapModel(meta.Version); err != nil {
		return err
	}
	if err := reg.Activate(meta.Version); err != nil {
		return fmt.Errorf("engine swapped to %d but registry activation failed (retry via POST /v1/models/promote): %w", meta.Version, err)
	}
	logModelMeta(logger, "model reloaded", meta.Model)
	logger.Info("model swapped", "version", meta.Version, "trigger", "sighup")
	return nil
}

// loadPipeline restores a saved model or trains a small demonstration
// pipeline on a simulated fleet of prof.
func loadPipeline(logger *slog.Logger, prof *hbm.Profile, modelsPath string, selftrain bool, seed uint64, banks, trees int) (*core.Pipeline, error) {
	switch {
	case modelsPath != "":
		f, err := os.Open(modelsPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		pipe, err := core.New(core.DefaultConfig(core.RandomForest))
		if err != nil {
			return nil, err
		}
		if err := pipe.LoadModels(f); err != nil {
			return nil, err
		}
		return pipe, nil
	case selftrain:
		spec := trace.DefaultSpecFor(prof)
		spec.UERBanks = banks
		spec.BenignBanks = 0
		spec.Seed = seed
		fleet, err := trace.Generate(spec)
		if err != nil {
			return nil, err
		}
		cfg := core.DefaultConfig(core.RandomForest)
		cfg.Params = core.ModelParams{Trees: trees, Depth: 8}
		cfg.Seed = seed
		pipe, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := pipe.Fit(fleet.Faults); err != nil {
			return nil, err
		}
		logger.Info("self-trained",
			"banks", len(fleet.Faults), "seed", seed, "trees", trees)
		return pipe, nil
	default:
		return nil, fmt.Errorf("need -models <path> or -selftrain")
	}
}
