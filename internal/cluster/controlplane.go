package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/obs"
	"cordial/internal/wal"
)

// CPConfig configures the control plane.
type CPConfig struct {
	// VNodes is the virtual-node count baked into every published
	// descriptor. Default DefaultVNodes.
	VNodes int
	// HeartbeatTTL declares a node dead when no heartbeat arrives for
	// this long. Default 6s.
	HeartbeatTTL time.Duration
	// SweepInterval is the failure-detector period. Default TTL/3.
	SweepInterval time.Duration
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// Client is the HTTP client for node calls. Handoffs move real state,
	// so the default timeout is generous (60s).
	Client *http.Client
	// Clock stamps heartbeats and drives the sweep. Default
	// obs.SystemClock.
	Clock obs.Clock
}

func (c CPConfig) withDefaults() CPConfig {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.HeartbeatTTL <= 0 {
		c.HeartbeatTTL = 6 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.HeartbeatTTL / 3
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if c.Clock == nil {
		c.Clock = obs.SystemClock{}
	}
	return c
}

// memberState is one registered serve node.
type memberState struct {
	Member
	lastSeen time.Time
}

// ControlPlane tracks cluster membership and orchestrates session
// handoff. Its state is in memory only — a restarted control plane
// starts empty and rebuilds membership as nodes re-register off their
// heartbeat 404s (a documented failure mode: ring epochs restart at 1,
// which is why nodes also fence on their own monotonic epoch).
//
// Topology changes (join, leave, death) are serialised: one mutation's
// export → import → publish → drop sequence completes before the next
// starts, so ownership never has two concurrent "next" views.
type ControlPlane struct {
	cfg CPConfig
	mux *http.ServeMux

	handoffs  *obs.Counter
	takeovers *obs.Counter
	orphaned  *obs.Counter
	errors    *obs.Counter

	// topo serialises topology mutations; held across node HTTP calls.
	topo sync.Mutex
	// mu guards the fields below; never held across HTTP calls.
	mu    sync.Mutex
	epoch uint64
	// issued is the highest epoch ever sent to a node: a topology change
	// fences under the next one, so no epoch names two memberships.
	issued  uint64
	members map[string]*memberState
	// profile is the cluster's topology profile, fixed by the first
	// registration ("" until then).
	profile string
}

// NewControlPlane builds the service. Mount Handler(); call Run (or
// Sweep from a test) to drive failure detection.
func NewControlPlane(cfg CPConfig) *ControlPlane {
	cp := &ControlPlane{
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		members: make(map[string]*memberState),
	}
	reg := obs.NewRegistry() // served on the control plane's own /metrics
	cp.handoffs = reg.Counter("cordial_cp_handoffs_total",
		"Session handoffs orchestrated (joins and leaves).")
	cp.takeovers = reg.Counter("cordial_cp_takeovers_total",
		"Dead-node takeovers orchestrated.")
	cp.orphaned = reg.Counter("cordial_cp_orphaned_takeovers_total",
		"Takeovers where the dead node's journal was unreadable; its banks restarted empty.")
	cp.errors = reg.Counter("cordial_cp_orchestration_errors_total",
		"Node calls that failed during a topology change.")
	reg.GaugeFunc("cordial_cp_members", "Registered serve nodes.", func() float64 {
		cp.mu.Lock()
		defer cp.mu.Unlock()
		return float64(len(cp.members))
	})
	reg.GaugeFunc("cordial_cp_ring_epoch", "Current published ring epoch.", func() float64 {
		cp.mu.Lock()
		defer cp.mu.Unlock()
		return float64(cp.epoch)
	})
	cp.mux.HandleFunc("POST /cluster/v1/register", cp.handleRegister)
	cp.mux.HandleFunc("POST /cluster/v1/heartbeat", cp.handleHeartbeat)
	cp.mux.HandleFunc("POST /cluster/v1/leave", cp.handleLeave)
	cp.mux.HandleFunc("GET /cluster/v1/ring", cp.handleRing)
	cp.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintln(w, "ok")
	})
	cp.mux.HandleFunc("GET /statsz", cp.handleStats)
	cp.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Cache-Control", "no-store")
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
	return cp
}

// Handler serves the control plane API.
func (cp *ControlPlane) Handler() http.Handler { return cp.mux }

// Run drives the failure detector until ctx ends.
func (cp *ControlPlane) Run(ctx interface{ Done() <-chan struct{} }) {
	tick := cp.cfg.Clock.NewTicker(cp.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			cp.Sweep()
		}
	}
}

// nextLocked is the current membership at a fresh epoch, for a topology
// change to fence under; callers hold cp.mu.
func (cp *ControlPlane) nextLocked() Descriptor {
	cp.issued = max(cp.issued, cp.epoch) + 1
	d := cp.descriptorLocked()
	d.Epoch = cp.issued
	return d
}

// descriptor builds the current descriptor; callers hold cp.mu.
func (cp *ControlPlane) descriptorLocked() Descriptor {
	ms := make([]Member, 0, len(cp.members))
	for _, m := range cp.members {
		ms = append(ms, m.Member)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	return Descriptor{Epoch: cp.epoch, VNodes: cp.cfg.VNodes, Profile: cp.profile, Members: ms}
}

// Descriptor returns the currently published ring descriptor.
func (cp *ControlPlane) Descriptor() Descriptor {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.descriptorLocked()
}

// handleRegister admits a node. A new ID triggers a rebalance: every
// existing node adopts the next descriptor (fencing the moving banks),
// drains and exports them; the joiner imports; sources drop; then the
// descriptor is published. Re-registration of a live ID just refreshes
// its address and lease — no topology change. The first registration fixes
// the cluster's profile; a node whose engine runs another is refused with 409.
func (cp *ControlPlane) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	m := req.Member
	if m.ID == "" || m.Addr == "" {
		http.Error(w, "member id and addr are required", http.StatusBadRequest)
		return
	}
	prof := cmp.Or(req.Profile, hbm.HBM2E.Name)

	cp.topo.Lock()
	defer cp.topo.Unlock()
	cp.mu.Lock()
	if cp.profile = cmp.Or(cp.profile, prof); cp.profile != prof {
		cp.mu.Unlock()
		http.Error(w, fmt.Sprintf("cluster runs profile %q, node %s runs %q", cp.profile, m.ID, prof), http.StatusConflict)
		return
	}
	if old, ok := cp.members[m.ID]; ok {
		old.Member = m
		old.lastSeen = cp.cfg.Clock.Now()
		desc := cp.descriptorLocked()
		cp.mu.Unlock()
		writeJSON(w, http.StatusOK, desc)
		return
	}
	next := cp.nextLocked()
	sources := next.Members
	next.Members = append(sources[:len(sources):len(sources)], m)
	sort.Slice(next.Members, func(i, j int) bool { return next.Members[i].ID < next.Members[j].ID })
	cp.mu.Unlock()

	if err := cp.rebalanceJoin(next, m, sources); err != nil {
		cp.abort()
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}

	cp.mu.Lock()
	cp.epoch = next.Epoch
	cp.members[m.ID] = &memberState{Member: m, lastSeen: cp.cfg.Clock.Now()}
	cp.mu.Unlock()
	cp.cfg.Logger.Info("node joined", "id", m.ID, "addr", m.Addr, "epoch", next.Epoch)
	if len(sources) > 0 {
		cp.handoffs.Inc()
	}
	writeJSON(w, http.StatusOK, next)
}

// rebalanceJoin moves the joiner's banks off every existing node.
// Export fences each source under the next epoch before it responds, so
// from the first export on, no source accepts events for moved banks;
// the router retries them against the joiner once the ring publishes. No
// source drops anything until every import is acknowledged.
func (cp *ControlPlane) rebalanceJoin(next Descriptor, joiner Member, sources []Member) error {
	for _, src := range sources {
		var bundle HandoffBundle
		if err := postJSON(cp.cfg.Client, "http://"+src.Addr+"/cluster/v1/export",
			exportRequest{Desc: next}, &bundle); err != nil {
			return fmt.Errorf("export from %s: %w", src.ID, err)
		}
		if err := postJSON(cp.cfg.Client, "http://"+joiner.Addr+"/cluster/v1/import",
			importRequest{Desc: next, Bundle: bundle, Join: true}, nil); err != nil {
			return fmt.Errorf("import into %s: %w", joiner.ID, err)
		}
	}
	// Every import acked: the moved state is durable on the joiner.
	for _, src := range sources {
		if err := postJSON(cp.cfg.Client, "http://"+src.Addr+"/cluster/v1/drop",
			dropRequest{Desc: next}, nil); err != nil {
			// Non-fatal: the source drops its copies at its next heartbeat.
			cp.errors.Inc()
			cp.cfg.Logger.Warn("post-handoff drop failed", "node", src.ID, "err", err)
		}
	}
	return nil
}

// abort ends a topology change that failed before it was published. The
// members it reached may serve its epoch, which is never published: the
// unchanged membership is, at a fresh epoch, and every member adopts it
// through a drop, discarding what it imported under the abandoned ring. No
// source has dropped anything. A failed joiner drops its imports itself at
// its next join (Agent.joinFilter): it may hold banks no one else has.
func (cp *ControlPlane) abort() {
	cp.errors.Inc()
	cp.mu.Lock()
	desc := cp.nextLocked()
	cp.epoch = desc.Epoch
	cp.mu.Unlock()
	for _, m := range desc.Members {
		if err := postJSON(cp.cfg.Client, "http://"+m.Addr+"/cluster/v1/drop",
			dropRequest{Desc: desc}, nil); err != nil {
			cp.cfg.Logger.Warn("drop after a failed topology change failed", "node", m.ID, "err", err)
		}
	}
}

// handleLeave removes a node gracefully: survivors get the leaver's
// sessions (each keeps what it owns under the next ring) before the
// leaver may exit.
func (cp *ControlPlane) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	cp.topo.Lock()
	defer cp.topo.Unlock()
	cp.mu.Lock()
	leaver, ok := cp.members[req.ID]
	if !ok {
		cp.mu.Unlock()
		http.Error(w, "unknown member", http.StatusNotFound)
		return
	}
	next := cp.nextLocked()
	next.Members = withoutMember(next.Members, req.ID)
	cp.mu.Unlock()

	if len(next.Members) > 0 {
		var bundle HandoffBundle
		err := postJSON(cp.cfg.Client, "http://"+leaver.Addr+"/cluster/v1/export",
			exportRequest{Desc: next}, &bundle)
		if err == nil {
			err = cp.distribute(next, bundle)
		}
		if err != nil {
			cp.abort()
			http.Error(w, fmt.Sprintf("leave of %s: %v", req.ID, err), http.StatusBadGateway)
			return
		}
	}
	cp.mu.Lock()
	delete(cp.members, req.ID)
	cp.epoch = next.Epoch
	cp.mu.Unlock()
	cp.handoffs.Inc()
	cp.cfg.Logger.Info("node left", "id", req.ID, "epoch", next.Epoch)
	writeJSON(w, http.StatusOK, next)
}

// distribute pushes one bundle to every member of next; each importer
// keeps only the banks it owns there. Used when a node's whole session
// set must find new homes (leave, dead-node takeover).
func (cp *ControlPlane) distribute(next Descriptor, bundle HandoffBundle) error {
	for _, dst := range next.Members {
		if err := postJSON(cp.cfg.Client, "http://"+dst.Addr+"/cluster/v1/import",
			importRequest{Desc: next, Bundle: bundle}, nil); err != nil {
			return fmt.Errorf("import into %s: %w", dst.ID, err)
		}
	}
	return nil
}

func memberIDs(ms []Member) []string {
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.ID
	}
	return ids
}

func withoutMember(ms []Member, id string) []Member {
	out := ms[:0:0]
	for _, m := range ms {
		if m.ID != id {
			out = append(out, m)
		}
	}
	return out
}

// handleHeartbeat refreshes a node's lease. 404 tells a node this
// control plane does not know it (restart or prior eviction): re-register.
func (cp *ControlPlane) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	cp.mu.Lock()
	m, ok := cp.members[req.ID]
	if ok {
		m.lastSeen = cp.cfg.Clock.Now()
	}
	epoch := cp.epoch
	cp.mu.Unlock()
	if !ok {
		http.Error(w, "unknown member", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{Epoch: epoch})
}

// handleRing publishes the current descriptor.
func (cp *ControlPlane) handleRing(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, cp.Descriptor())
}

// handleStats reports membership and orchestration counters.
func (cp *ControlPlane) handleStats(w http.ResponseWriter, r *http.Request) {
	type jsonMember struct {
		ID       string `json:"id"`
		Addr     string `json:"addr"`
		LastSeen string `json:"lastSeen"`
	}
	cp.mu.Lock()
	out := struct {
		Epoch     uint64       `json:"epoch"`
		Members   []jsonMember `json:"members"`
		Handoffs  uint64       `json:"handoffs"`
		Takeovers uint64       `json:"takeovers"`
		Orphaned  uint64       `json:"orphanedTakeovers"`
		Errors    uint64       `json:"orchestrationErrors"`
	}{Epoch: cp.epoch}
	for _, m := range cp.members {
		out.Members = append(out.Members, jsonMember{
			ID: m.ID, Addr: m.Addr, LastSeen: m.lastSeen.UTC().Format(time.RFC3339Nano),
		})
	}
	cp.mu.Unlock()
	sort.Slice(out.Members, func(i, j int) bool { return out.Members[i].ID < out.Members[j].ID })
	out.Handoffs = cp.handoffs.Value()
	out.Takeovers = cp.takeovers.Value()
	out.Orphaned = cp.orphaned.Value()
	out.Errors = cp.errors.Value()
	writeJSON(w, http.StatusOK, out)
}

// Sweep runs one failure-detection pass: every member whose lease expired
// is declared dead, and all of them are taken over in one topology change.
// A pass that would leave no member changes nothing: a member that renews
// its lease keeps the ring, and a later sweep hands it the others' state.
// Exported for tests; Run calls it periodically.
//
// The dead processes cannot export, so the control plane reads each one's
// durable state directly — the latest snapshot plus the full journal off its
// registered WAL directory (reachable storage is the deployment contract
// here; see DESIGN.md). Per-session watermarks make the overlap harmless.
// Each bundle goes to every survivor; each keeps what it owns. If a journal
// is unreadable the ring still advances — those banks restart empty rather
// than staying routed at a corpse.
func (cp *ControlPlane) Sweep() {
	cp.topo.Lock()
	defer cp.topo.Unlock()
	cp.mu.Lock()
	now := cp.cfg.Clock.Now()
	var dead []Member
	for _, m := range cp.members {
		if now.Sub(m.lastSeen) > cp.cfg.HeartbeatTTL {
			dead = append(dead, m.Member)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].ID < dead[j].ID })
	if len(dead) == 0 || len(dead) == len(cp.members) {
		cp.mu.Unlock()
		if len(dead) > 0 {
			cp.cfg.Logger.Warn("every member's lease expired; ring kept until one renews", "members", memberIDs(dead))
		}
		return
	}
	next := cp.nextLocked()
	for _, m := range dead {
		next.Members = withoutMember(next.Members, m.ID)
	}
	cp.mu.Unlock()

	for _, m := range dead {
		bundle, err := readNodeState(m.WALDir)
		if err != nil {
			cp.orphaned.Inc()
			cp.cfg.Logger.Error("dead node journal unreadable; its banks restart empty",
				"id", m.ID, "walDir", m.WALDir, "err", err)
			continue
		}
		if len(bundle.Payload) > 0 || len(bundle.Suffix) > 0 {
			if err := cp.distribute(next, bundle); err != nil {
				cp.abort()
				cp.cfg.Logger.Error("takeover distribution failed; will retry next sweep",
					"id", m.ID, "err", err)
				return // keep the members; the next sweep retries the whole takeover
			}
		}
	}
	cp.mu.Lock()
	for _, m := range dead {
		delete(cp.members, m.ID)
	}
	cp.epoch = next.Epoch
	cp.mu.Unlock()
	cp.takeovers.Add(uint64(len(dead)))
	cp.cfg.Logger.Warn("nodes declared dead; banks reassigned",
		"dead", memberIDs(dead), "epoch", next.Epoch, "survivors", len(next.Members))
}

// readNodeState loads a dead node's portable state off its WAL
// directory: newest snapshot payload plus the complete journal as the
// suffix (watermarks deduplicate the overlap during import). Both reads
// leave the directory as the node left it, torn tail and temp files
// included.
func readNodeState(dir string) (HandoffBundle, error) {
	if dir == "" {
		return HandoffBundle{}, fmt.Errorf("cluster: node registered no WAL directory")
	}
	_, payload, err := wal.LoadLatestSnapshot(nil, dir)
	if err != nil && !errors.Is(err, wal.ErrNoSnapshot) {
		return HandoffBundle{}, fmt.Errorf("cluster: reading snapshot in %s: %w", dir, err)
	}
	// No snapshot (node died before its first checkpoint) is fine: the
	// journal alone rebuilds every session.
	recs, err := wal.ReadJournal(nil, dir)
	if err != nil {
		return HandoffBundle{}, fmt.Errorf("cluster: reading journal in %s: %w", dir, err)
	}
	return HandoffBundle{Payload: payload, Suffix: recs}, nil
}
