package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"cordial/internal/obs"
	"cordial/internal/stream"
)

// AgentConfig wires a serve node into a cluster.
type AgentConfig struct {
	// ControlPlane is the control plane's base URL (http://host:port).
	ControlPlane string
	// Self identifies this node: ring ID, advertised ingest address and
	// the WAL directory the control plane may read for dead-node takeover.
	Self Member
	// Heartbeat is the registration refresh interval. Default 2s.
	Heartbeat time.Duration
	// DrainTimeout bounds the engine drain before a handoff export.
	// Default 10s.
	DrainTimeout time.Duration
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// Client is the HTTP client for control-plane calls. Default: a
	// client with a 30s timeout.
	Client *http.Client
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

// Agent runs inside a serve node: it registers with the control plane,
// heartbeats, tracks ring epochs, and serves the handoff endpoints the
// control plane drives during rebalances (/cluster/v1/export, import,
// drop). Ownership changes flow one way — the agent only ever adopts a
// descriptor with a higher epoch than the one it holds.
type Agent struct {
	cfg    AgentConfig
	engine *stream.Engine
	server *stream.Server
	mux    *http.ServeMux

	exports   *obs.Counter
	imports   *obs.Counter
	drops     *obs.Counter
	adoptions *obs.Counter

	mu    sync.Mutex
	epoch uint64
	ring  *Ring
	// stale is set from a handoff until a drop: the node may hold sessions
	// its ring does not give it.
	stale bool
	// provisional holds the banks a join at joinEpoch imported until the
	// registration succeeds. A failed join's sources keep serving theirs.
	provisional map[uint64]bool
	joinEpoch   uint64
}

// NewAgent builds the agent and registers its instruments in the
// engine's metrics registry (one /metrics scrape covers the node).
// Mount Handler() under /cluster/ next to the stream server.
func NewAgent(cfg AgentConfig, engine *stream.Engine, server *stream.Server) *Agent {
	a := &Agent{
		cfg:    cfg.withDefaults(),
		engine: engine,
		server: server,
		mux:    http.NewServeMux(),
	}
	reg := engine.Metrics()
	a.exports = reg.Counter("cordial_cluster_handoff_exports_total",
		"Handoff exports served (sessions shipped to another node).")
	a.imports = reg.Counter("cordial_cluster_handoff_imports_total",
		"Handoff imports served (sessions adopted from another node).")
	a.drops = reg.Counter("cordial_cluster_handoff_drops_total",
		"Post-handoff drops of sessions this node no longer owns.")
	a.adoptions = reg.Counter("cordial_cluster_ring_adoptions_total",
		"Ring descriptors adopted (epoch advances seen by this node).")
	reg.GaugeFunc("cordial_cluster_ring_epoch",
		"Ring epoch this node currently serves under (0 = standalone).",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(a.epoch)
		})
	a.mux.HandleFunc("POST /cluster/v1/export", a.handleExport)
	a.mux.HandleFunc("POST /cluster/v1/import", a.handleImport)
	a.mux.HandleFunc("POST /cluster/v1/drop", a.handleDrop)
	return a
}

// Handler serves the node-side cluster endpoints.
func (a *Agent) Handler() http.Handler { return a.mux }

// Epoch reports the ring epoch the node currently serves under.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// adopt installs a descriptor's ownership view. Stale or same-epoch
// descriptors are no-ops: epochs only move forward, so a late-arriving
// control-plane call can never roll ownership back. Epoch 0 is a standalone
// node's, never a ring's: a descriptor claiming it is refused (a fresh agent
// would otherwise answer it with the ring it does not have).
func (a *Agent) adopt(desc Descriptor) (*Ring, error) {
	if desc.Epoch == 0 {
		return nil, fmt.Errorf("cluster: descriptor without an epoch")
	}
	ring, err := BuildRing(desc)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if desc.Epoch <= a.epoch {
		if desc.Epoch < a.epoch {
			return nil, fmt.Errorf("cluster: stale descriptor epoch %d (serving %d)", desc.Epoch, a.epoch)
		}
		return a.ring, nil
	}
	a.epoch = desc.Epoch
	a.ring = ring
	self := a.cfg.Self.ID
	a.server.SetOwnership(desc.Epoch, func(key uint64) bool { return ring.Owns(self, key) })
	a.adoptions.Inc()
	a.cfg.Logger.Info("adopted ring", "epoch", desc.Epoch, "members", ring.Len())
	return ring, nil
}

// handleExport: adopt the new descriptor (fencing off the moved banks),
// drain in-flight work, and return every session this node no longer
// owns. The live path ships no WAL suffix — after the drain the snapshot
// payload covers every accepted event for the moved banks.
func (a *Agent) handleExport(w http.ResponseWriter, r *http.Request) {
	var req exportRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	ring, err := a.adopt(req.Desc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err := a.engine.Drain(a.cfg.DrainTimeout); err != nil {
		http.Error(w, fmt.Sprintf("drain before export: %v", err), http.StatusServiceUnavailable)
		return
	}
	self := a.cfg.Self.ID
	payload, err := a.engine.ExportSessions(func(key uint64) bool { return !ring.Owns(self, key) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	a.exports.Inc()
	a.setStale(true)
	writeJSON(w, http.StatusOK, HandoffBundle{Payload: payload})
}

// handleImport: adopt the descriptor and fold in the bundled sessions
// this node owns under it. stream.ImportSessions snapshots before
// returning, so a 200 here means the state is on local stable storage —
// the control plane may tell the source to drop its copies.
func (a *Agent) handleImport(w http.ResponseWriter, r *http.Request) {
	var req importRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	ring, err := a.adopt(req.Desc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	owns := func(key uint64) bool { return ring.Owns(a.cfg.Self.ID, key) }
	if req.Join {
		if owns, err = a.joinFilter(req.Desc.Epoch, owns); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	// Stale from here on, even if the import fails: it may fail after
	// adopting sessions (its snapshot failed), and a ring that then gives the
	// banks elsewhere leaves them for dropStale.
	a.setStale(true)
	st, err := a.engine.ImportSessions(req.Bundle.Payload, req.Bundle.Suffix, owns)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	a.imports.Inc()
	if st.Sessions > 0 || st.Conflicts > 0 {
		a.cfg.Logger.Info("handoff import",
			"epoch", req.Desc.Epoch, "sessions", st.Sessions, "replayed", st.Replayed,
			"skipped", st.Skipped, "conflicts", st.Conflicts, "quarantined", st.Quarantined)
	}
	writeJSON(w, http.StatusOK, st)
}

// joinFilter wraps owns for an import into this node as a joiner at epoch. A
// join at another epoch than the last one's means that one failed: what it
// imported goes first. The banks this import brings in are provisional until
// the registration succeeds.
func (a *Agent) joinFilter(epoch uint64, owns func(uint64) bool) (func(uint64) bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if epoch != a.joinEpoch {
		if _, err := a.engine.DropSessions(func(key uint64) bool { return a.provisional[key] }); err != nil {
			return nil, fmt.Errorf("dropping what a failed join imported: %w", err)
		}
		a.joinEpoch, a.provisional = epoch, map[uint64]bool{}
	}
	layout := a.engine.Config().Profile.Layout
	return func(key uint64) bool {
		if !owns(key) {
			return false
		}
		if _, held := a.engine.Session(layout.UnpackBank(key)); !held {
			a.mu.Lock()
			a.provisional[key] = true
			a.mu.Unlock()
		}
		return true
	}, nil
}

// handleDrop: discard sessions this node no longer owns under the
// descriptor. The control plane only sends this after the importer's
// 200, so the moved state exists durably elsewhere.
func (a *Agent) handleDrop(w http.ResponseWriter, r *http.Request) {
	var req dropRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	ring, err := a.adopt(req.Desc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	self := a.cfg.Self.ID
	n, err := a.engine.DropSessions(func(key uint64) bool { return !ring.Owns(self, key) })
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	a.setStale(false)
	if n > 0 {
		a.drops.Inc()
		a.cfg.Logger.Info("dropped moved sessions", "epoch", req.Desc.Epoch, "sessions", n)
	}
	writeJSON(w, http.StatusOK, struct {
		Dropped int `json:"dropped"`
	}{n})
}

// Run registers with the control plane and heartbeats until ctx ends.
// Registration is retried with bounded backoff (the control plane may
// start after the node). A heartbeat 404 means the control plane forgot
// this node (it restarted, or declared the node dead during a partition)
// — the agent re-registers. A heartbeat reporting a newer epoch makes
// the agent fetch and adopt the current ring.
func (a *Agent) Run(ctx context.Context) error {
	clock := a.engine.Config().Clock
	for attempt := 0; ; attempt++ {
		if err := a.register(); err == nil {
			break
		} else {
			a.cfg.Logger.Warn("cluster register failed; retrying", "err", err)
		}
		if !backoff(clock, ctx.Done(), attempt, 200*time.Millisecond, 5*time.Second) {
			return ctx.Err()
		}
	}
	tick := clock.NewTicker(a.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			a.heartbeat()
		}
	}
}

// heartbeat renews the node's lease once, as Run does every tick.
func (a *Agent) heartbeat() {
	var hb heartbeatResponse
	err := postJSON(a.cfg.Client, a.cfg.ControlPlane+"/cluster/v1/heartbeat",
		heartbeatRequest{ID: a.cfg.Self.ID}, &hb)
	var se *statusError
	switch {
	case err == nil:
		if hb.Epoch > a.Epoch() {
			if err := a.refreshRing(); err != nil {
				a.cfg.Logger.Warn("ring refresh failed", "err", err)
			}
		}
		a.dropStale(hb.Epoch)
	case errors.As(err, &se) && se.Status == http.StatusNotFound:
		a.cfg.Logger.Warn("control plane forgot this node; re-registering")
		if err := a.register(); err != nil {
			a.cfg.Logger.Warn("re-register failed", "err", err)
		}
	default:
		a.cfg.Logger.Warn("heartbeat failed", "err", err)
	}
}

func (a *Agent) setStale(stale bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stale = stale
}

// dropStale discards what a missed drop left behind once the ring the node
// serves is the published one, at epoch: an epoch names one membership, so
// what that ring does not give the node is held where it does.
func (a *Agent) dropStale(epoch uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.stale || a.epoch != epoch {
		return
	}
	self, ring := a.cfg.Self.ID, a.ring
	if _, err := a.engine.DropSessions(func(key uint64) bool { return !ring.Owns(self, key) }); err != nil {
		a.cfg.Logger.Warn("dropping stale sessions failed", "err", err)
		return
	}
	a.stale = false
}

// Leave asks the control plane to rebalance this node's banks away
// (graceful departure). The node's HTTP listener must still be serving:
// the control plane calls back into /cluster/v1/export to collect the
// sessions before it responds.
func (a *Agent) Leave() error {
	return postJSON(a.cfg.Client, a.cfg.ControlPlane+"/cluster/v1/leave",
		heartbeatRequest{ID: a.cfg.Self.ID}, nil)
}

// register announces the node and adopts the descriptor the control
// plane responds with.
func (a *Agent) register() error {
	var desc Descriptor
	if err := postJSON(a.cfg.Client, a.cfg.ControlPlane+"/cluster/v1/register",
		registerRequest{Member: a.cfg.Self, Profile: a.engine.Config().Profile.Name}, &desc); err != nil {
		return err
	}
	a.mu.Lock()
	a.provisional, a.joinEpoch = nil, 0
	a.mu.Unlock()
	_, err := a.adopt(desc)
	return err
}

// refreshRing fetches and adopts the control plane's current descriptor.
func (a *Agent) refreshRing() error {
	var desc Descriptor
	if err := getJSON(a.cfg.Client, a.cfg.ControlPlane+"/cluster/v1/ring", &desc); err != nil {
		return err
	}
	_, err := a.adopt(desc)
	return err
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // peer may be gone; nothing to do
}
