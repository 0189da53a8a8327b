package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
)

// ServerConfig bounds the HTTP ingestion front-end. Zero fields take the
// defaults noted per field.
type ServerConfig struct {
	// MaxBodyBytes caps one POST /v1/events body, and so one JSONL line.
	// Default 32 MiB.
	MaxBodyBytes int64
	// MaxStoredActions caps the in-memory action store served by
	// GET /v1/actions; the oldest actions are evicted past it. Default 4096.
	MaxStoredActions int
	// ModelAdmin, when set, enables the model-lifecycle admin endpoints
	// (GET /v1/models, POST /v1/models/{promote,rollback,retrain}).
	// Normally lifecycle.AdminFor over the daemon's Manager; nil leaves
	// the endpoints answering 404.
	ModelAdmin ModelAdmin
}

// ModelAdmin is the lifecycle hook behind the model administration
// endpoints. The stream package cannot import the lifecycle manager (the
// manager drives the engine), so the server takes the admin surface as an
// interface and the lifecycle package provides the adapter.
type ModelAdmin interface {
	// Overview returns the JSON-serialisable body of GET /v1/models:
	// installed versions plus lifecycle status.
	Overview() any
	// Promote makes a version active (0 = the current shadow candidate).
	Promote(version uint64) error
	// Rollback retires an in-flight candidate, or re-activates the
	// previous installed version when no shadow is running.
	Rollback() error
	// Retrain forces a retrain cycle, tagging the artefact with trigger.
	Retrain(trigger string) error
}

// withDefaults fills zero fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxStoredActions <= 0 {
		c.MaxStoredActions = 4096
	}
	return c
}

// maxBatchErrors caps the error messages echoed in one ingest response, at
// a serve node or the router.
const maxBatchErrors = 16

// Server is the HTTP front-end over an Engine: JSONL batch ingest, action
// retrieval, per-bank session inspection, health and stats. It implements
// http.Handler; mount it directly or under a prefix.
type Server struct {
	engine *Engine
	cfg    ServerConfig
	mux    *http.ServeMux

	requests   *obs.Counter
	notOwned   *obs.Counter
	decode     *obs.Stage // BodyReader.Next at either ingest route
	ingestPool sync.Pool  // *ingestRequest: body reader + event chunk reuse

	// ownership is nil while the node serves standalone (it owns every
	// bank). In a cluster the node agent installs the current ring view
	// here; handleEvents rejects events for banks outside it with a 503
	// the router understands (see IngestResult.NotOwned).
	ownership atomic.Pointer[ownershipView]

	mu      sync.Mutex
	actions actionRing
	drained chan struct{}
}

// actionRing is the bounded GET /v1/actions store: a fixed ring, allocated
// once, that overwrites its oldest action once full — O(1) per action
// however long the server has been running past the cap. The number of
// actions ever pushed is its only cursor: the next slot, the stored count
// and the evicted count all derive from it.
type actionRing struct {
	buf    []Action // len is the capacity
	pushed uint64
}

func (r *actionRing) push(a Action) {
	r.buf[r.pushed%uint64(len(r.buf))] = a
	r.pushed++
}

// count returns the number of actions currently stored.
func (r *actionRing) count() int { return int(min(r.pushed, uint64(len(r.buf)))) }

// evicted returns the number of actions overwritten so far.
func (r *actionRing) evicted() uint64 { return r.pushed - uint64(r.count()) }

// newest returns a copy of the newest n stored actions (all of them when n
// is negative), oldest first.
func (r *actionRing) newest(n int) []Action {
	if n < 0 || n > r.count() {
		n = r.count()
	}
	out := make([]Action, n)
	first := r.pushed - uint64(n)
	for i := range out {
		out[i] = r.buf[(first+uint64(i))%uint64(len(r.buf))]
	}
	return out
}

// NewServer wraps an engine with the HTTP API and starts collecting its
// actions. The collector goroutine exits when the engine is closed. The
// server registers its own instruments in the engine's registry, so one
// GET /metrics scrape covers all three layers (HTTP, engine, WAL).
func NewServer(e *Engine, cfg ServerConfig) *Server {
	s := &Server{
		engine:  e,
		cfg:     cfg.withDefaults(),
		mux:     http.NewServeMux(),
		drained: make(chan struct{}),
	}
	s.actions.buf = make([]Action, s.cfg.MaxStoredActions)
	reg := e.Metrics()
	s.requests = reg.Counter("cordial_http_requests_total",
		"HTTP requests served (all routes).")
	s.notOwned = reg.Counter("cordial_http_not_owned_total",
		"Ingest batches refused because a bank is outside this node's ring ownership.")
	s.decode = reg.Stage("decode")
	s.ingestPool.New = func() any { return &ingestRequest{srv: s} }
	reg.GaugeFunc("cordial_actions_stored",
		"Actions currently held in the bounded GET /v1/actions store.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.actions.count())
		})
	s.mux.HandleFunc("POST /v1/events", s.handleIngest(mcelog.JSONL))
	s.mux.HandleFunc("POST /v1/events.bin", s.handleIngest(mcelog.Wire))
	s.mux.HandleFunc("GET /v1/actions", s.handleActions)
	s.mux.HandleFunc("GET /v1/banks/{addr}", s.handleBank)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("POST /v1/models/promote", s.handleModelPromote)
	s.mux.HandleFunc("POST /v1/models/rollback", s.handleModelRollback)
	s.mux.HandleFunc("POST /v1/models/retrain", s.handleModelRetrain)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /statsz", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	go s.collect()
	return s
}

// collect drains the engine's action channel into the bounded store.
func (s *Server) collect() {
	defer close(s.drained)
	for a := range s.engine.Actions() {
		s.mu.Lock()
		s.actions.push(a)
		s.mu.Unlock()
	}
}

// AwaitDrained blocks until the engine has been closed and every emitted
// action has been collected (graceful-shutdown ordering: close the engine,
// then await, then report).
func (s *Server) AwaitDrained() { <-s.drained }

// ServeHTTP dispatches to the API routes. Every response carries
// Cache-Control: no-store — health, stats and ownership answers describe
// this instant on this node, and a cached copy (proxy, browser, CDN)
// would misroute traffic or mask an outage.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	w.Header().Set("Cache-Control", "no-store")
	s.mux.ServeHTTP(w, r)
}

// ownershipView is one ring epoch's answer to "does this node own bank X".
type ownershipView struct {
	epoch uint64
	owns  func(bankKey uint64) bool
}

// SetOwnership installs the bank-ownership predicate for a ring epoch.
// Ingest rejects events for banks where owns returns false with a 503
// whose body carries the epoch, so a router with a stale ring knows to
// refresh and resend the unconsumed suffix. A nil owns accepts every
// bank under the given epoch; call with epoch 0 and nil to return to
// standalone mode.
func (s *Server) SetOwnership(epoch uint64, owns func(bankKey uint64) bool) {
	if epoch == 0 && owns == nil {
		s.ownership.Store(nil)
		return
	}
	s.ownership.Store(&ownershipView{epoch: epoch, owns: owns})
}

// IngestResult is the response body of POST /v1/events.
type IngestResult struct {
	// Accepted counts events enqueued to the engine.
	Accepted int `json:"accepted"`
	// Rejected counts malformed or invalid lines.
	Rejected int `json:"rejected"`
	// Dropped counts events shed by a full shard queue (IngestDrop).
	Dropped int `json:"dropped"`
	// Errors samples per-line failure messages (capped).
	Errors []string `json:"errors,omitempty"`
	// Truncated reports that the batch ended early (a body over the cap or
	// a mid-body disconnect); counts cover the prefix that was read.
	Truncated bool `json:"truncated,omitempty"`
	// NotOwned is 1 when the batch stopped at a line whose bank this node
	// does not own under the current ring epoch (response status 503).
	// The offending line was NOT consumed: a router should refresh its
	// ring and resend the batch suffix starting at line index
	// Accepted+Rejected+Dropped.
	NotOwned int `json:"notOwned,omitempty"`
	// Epoch is the ring epoch the server evaluated ownership under.
	// Zero when the node serves standalone.
	Epoch uint64 `json:"epoch,omitempty"`
}

// Note samples one failure message into the result: at most maxBatchErrors
// of them, at either ingest door.
func (r *IngestResult) Note(format string, args ...any) {
	if len(r.Errors) < maxBatchErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Reject counts one refused event and samples its message.
func (r *IngestResult) Reject(err error) {
	r.Rejected++
	r.Note("%v", err)
}

// EndBody is every ingest door's end-of-body rule: end is how reading the
// body stopped at pos. A clean end (io.EOF) answers 200. A body that ended
// short is Truncated, its counts cover the prefix read, and the status is
// 413 for a body over the cap, else the codec's: 200 for JSONL (a mid-body
// disconnect keeps what was read), 400 for frames (a corrupt frame leaves no
// next frame boundary to resume at).
func (r *IngestResult) EndBody(pos mcelog.Pos, end error) int {
	if end == io.EOF {
		return http.StatusOK
	}
	r.Truncated = true
	r.Note("after %v: %v", pos, end)
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(end, &tooBig):
		return http.StatusRequestEntityTooLarge
	case pos.Codec == mcelog.Wire:
		return http.StatusBadRequest
	}
	return http.StatusOK
}

// ingestRequest is one ingest request past its reader, whichever codec
// carried it: what happens to a decoded event — validate, ownership check,
// pending chunk, IngestBatch, merged counts — and how a request ends early
// (503 consumed-prefix) is decided here, once. Pooled, so the frame
// decoder's payload buffer and the chunk serve request after request.
type ingestRequest struct {
	srv    *Server
	body   mcelog.BodyReader
	chunk  []mcelog.Event // validated and owned, not yet ingested
	prof   *hbm.Profile
	own    *ownershipView
	res    IngestResult
	status int // non-zero once the request must end before its body does
}

// handleIngest serves both ingest routes, the route naming its body's
// codec: POST /v1/events takes JSONL, POST /v1/events.bin CBF2 frames
// (mcelog/wire.go; legacy CBF1 bodies still decode). A malformed or invalid
// record is rejected on its own, under its place in the codec's own unit
// ("line 12", "frame 3 record 40"), and the rest of the body goes on.
// Events reach the engine in chunks — a binary body's own frames, JSONL
// lines a frame's worth (mcelog.DefaultFrameEvents) at a time — so a
// durable node pays one journal append per chunk, not per event.
func (s *Server) handleIngest(codec mcelog.Codec) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := s.ingestPool.Get().(*ingestRequest)
		defer q.end()
		q.prof, q.own = s.engine.cfg.Profile, s.ownership.Load()
		q.body.Reset(q.prof, codec, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), int(s.cfg.MaxBodyBytes)+1)
		if q.own != nil {
			q.res.Epoch = q.own.epoch
		}
		var end error
		for q.status == 0 && end == nil {
			end = q.step()
		}
		if q.status == 0 && q.flush() {
			q.status = q.res.EndBody(q.body.Pos(), end)
		}
		writeJSON(w, q.status, q.res)
	}
}

func (q *ingestRequest) end() {
	q.body.Reset(q.prof, mcelog.Wire, nil, 0) // let go of the request's body
	q.chunk, q.res, q.status = q.chunk[:0], IngestResult{}, 0
	q.srv.ingestPool.Put(q)
}

// step takes one step of the body, a decode stage: nil, or how the body
// ended.
func (q *ingestRequest) step() error {
	t0 := q.srv.decode.Start()
	ev, err := q.body.Next()
	q.srv.decode.Stop(t0)
	switch err.(type) {
	case nil:
		q.add(ev)
	case *mcelog.RecordError:
		q.res.Reject(err)
	default:
		return err
	}
	// A chunk is a binary body's own frame, or a frame's worth of JSONL.
	if q.status == 0 && (q.body.FrameEnd() || q.body.Pos().Codec == mcelog.JSONL && len(q.chunk) == mcelog.DefaultFrameEvents) {
		q.flush()
	}
	return nil
}

// add takes one decoded event. An event for a bank this node does not own
// ends the request with the consumed-prefix 503: everything before it is
// ingested (or was rejected) and must not be resent; the event itself and
// the rest of the body belong to another node (see IngestResult.NotOwned).
func (q *ingestRequest) add(ev mcelog.Event) {
	if err := ev.Validate(q.prof.Geometry); err != nil {
		q.res.Reject(&mcelog.RecordError{Pos: q.body.Pos(), Err: err})
		return
	}
	if q.own != nil && q.own.owns != nil && !q.own.owns(q.prof.Layout.BankKey(ev.Addr)) {
		if q.flush() {
			q.res.NotOwned = 1
			q.srv.notOwned.Inc()
			q.status = http.StatusServiceUnavailable
		}
		return
	}
	q.chunk = append(q.chunk, ev)
}

// flush ingests the pending chunk — on a durable node, one journal append —
// and reports whether the request may go on. When the engine is closed or
// journaling failed, nothing of the chunk landed: the counts cover what
// earlier chunks ingested and the request ends 503.
func (q *ingestRequest) flush() bool {
	accepted, dropped, err := q.srv.engine.IngestBatch(q.chunk)
	q.chunk = q.chunk[:0]
	q.res.Accepted += accepted
	q.res.Dropped += dropped
	if err != nil {
		pos := q.body.Pos()
		pos.Rec = -1 // the whole line or frame
		q.res.Truncated = true
		q.res.Note("%v: %v", pos, err)
		q.status = http.StatusServiceUnavailable
		return false
	}
	return true
}

// jsonAction is the wire shape of one action.
type jsonAction struct {
	Kind  string    `json:"kind"`
	Bank  string    `json:"bank"`
	Rows  []int     `json:"rows,omitempty"`
	Class string    `json:"class"`
	Time  time.Time `json:"time"`
}

// handleActions returns collected actions, oldest first. ?limit=N keeps
// only the newest N.
func (s *Server) handleActions(w http.ResponseWriter, r *http.Request) {
	limit := -1
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", q), http.StatusBadRequest)
			return
		}
		limit = n
	}
	s.mu.Lock()
	actions := s.actions.newest(limit)
	evicted := s.actions.evicted()
	s.mu.Unlock()
	out := struct {
		Actions []jsonAction `json:"actions"`
		Evicted uint64       `json:"evicted"`
	}{Actions: make([]jsonAction, len(actions)), Evicted: evicted}
	for i, a := range actions {
		out.Actions[i] = jsonAction{
			Kind:  a.Kind.String(),
			Bank:  a.Bank.String(),
			Rows:  a.Rows,
			Class: a.Class.String(),
			Time:  a.Time.UTC(),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// jsonSession is the wire shape of one bank session snapshot; stateDeferred
// is SessionStats.StateDeferred, a bank held in the store's stored form.
type jsonSession struct {
	Bank            string    `json:"bank"`
	Events          int       `json:"events"`
	UEREvents       int       `json:"uerEvents"`
	DistinctUERRows int       `json:"distinctUERRows"`
	Classified      bool      `json:"classified"`
	Class           string    `json:"class,omitempty"`
	BankSpared      bool      `json:"bankSpared"`
	RowsIsolated    int       `json:"rowsIsolated"`
	Actions         int       `json:"actions"`
	FirstEvent      time.Time `json:"firstEvent"`
	LastEvent       time.Time `json:"lastEvent"`
	StateBytes      int       `json:"featureStateBytes"`
	StateRows       int       `json:"featureStateRows"`
	StateReleased   bool      `json:"featureStateReleased"`
	StateDeferred   bool      `json:"stateDeferred"`
	Degraded        bool      `json:"degraded"`
	ModelVersion    uint64    `json:"modelVersion"`
}

// handleBank returns one bank's session snapshot. The address may be any
// cell in the bank; it is truncated to bank granularity.
func (s *Server) handleBank(w http.ResponseWriter, r *http.Request) {
	addr, err := s.engine.cfg.Profile.Layout.ParseAddress(r.PathValue("addr"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	st, ok := s.engine.Session(hbm.BankOf(addr))
	if !ok {
		http.Error(w, "no session for bank", http.StatusNotFound)
		return
	}
	js := jsonSession{
		Bank:            st.Bank.String(),
		Events:          st.Events,
		UEREvents:       st.UEREvents,
		DistinctUERRows: st.DistinctUERRows,
		Classified:      st.Classified,
		BankSpared:      st.BankSpared,
		RowsIsolated:    st.RowsIsolated,
		Actions:         st.Actions,
		FirstEvent:      st.FirstEvent.UTC(),
		LastEvent:       st.LastEvent.UTC(),
		StateBytes:      st.StateBytes,
		StateRows:       st.StateRows,
		StateReleased:   st.StateReleased,
		StateDeferred:   st.StateDeferred,
		Degraded:        st.Degraded,
		ModelVersion:    st.ModelVersion,
	}
	if st.Classified {
		js.Class = st.Class.String()
	}
	writeJSON(w, http.StatusOK, js)
}

// admin resolves the configured ModelAdmin or answers 404 — a daemon
// without a lifecycle manager simply does not have these routes.
func (s *Server) admin(w http.ResponseWriter) (ModelAdmin, bool) {
	if s.cfg.ModelAdmin == nil {
		http.Error(w, "model administration not enabled on this node", http.StatusNotFound)
		return nil, false
	}
	return s.cfg.ModelAdmin, true
}

// handleModels lists installed model versions and lifecycle status.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	admin, ok := s.admin(w)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, admin.Overview())
}

// decodeAdminBody decodes a small optional JSON body into v. An empty body
// leaves v untouched; anything unparsable is the client's error.
func decodeAdminBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(v); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// handleModelPromote activates a version ({"version": N}; 0 or an empty
// body promotes the current shadow candidate). A refused promotion — no
// candidate, unknown version — is a 409 so clients can tell operator error
// from transport failure.
func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	admin, ok := s.admin(w)
	if !ok {
		return
	}
	var req struct {
		Version uint64 `json:"version"`
	}
	if !decodeAdminBody(w, r, &req) {
		return
	}
	if err := admin.Promote(req.Version); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ActiveVersion uint64 `json:"activeVersion"`
	}{s.engine.ActiveModelVersion()})
}

// handleModelRollback retires the candidate or reverts to the previous
// installed version.
func (s *Server) handleModelRollback(w http.ResponseWriter, r *http.Request) {
	admin, ok := s.admin(w)
	if !ok {
		return
	}
	if err := admin.Rollback(); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ActiveVersion uint64 `json:"activeVersion"`
	}{s.engine.ActiveModelVersion()})
}

// handleModelRetrain forces a retrain cycle off the journal
// ({"trigger": "why"}; defaults to "manual"). The new candidate enters
// shadow evaluation like a drift-triggered one; poll GET /v1/models for
// its fate.
func (s *Server) handleModelRetrain(w http.ResponseWriter, r *http.Request) {
	admin, ok := s.admin(w)
	if !ok {
		return
	}
	req := struct {
		Trigger string `json:"trigger"`
	}{Trigger: "manual"}
	if !decodeAdminBody(w, r, &req) {
		return
	}
	if err := admin.Retrain(req.Trigger); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		Status string `json:"status"`
	}{"retraining"})
}

// handleHealth answers liveness probes: the process is up and serving.
// It deliberately stays 200 under degradation — restarting the daemon
// does not undegrade a session, so liveness must not trigger restarts.
// Readiness (should this instance take traffic?) is /readyz's question.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReady answers readiness probes: 200 {"ready":true} when the
// engine can do its job, 503 with the reasons when it cannot (degraded
// sessions, or the last WAL append failed so intake is not being
// persisted). Load balancers should route on this, not /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	reasons := s.engine.ReadyReasons()
	out := struct {
		Ready   bool     `json:"ready"`
		Reasons []string `json:"reasons,omitempty"`
	}{Ready: len(reasons) == 0, Reasons: reasons}
	status := http.StatusOK
	if !out.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, out)
}

// handleMetrics renders the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.engine.Metrics().WriteText(w) // connection may be gone; nothing to do
}

// handleStats reports the engine's stats and, beside them, the server's own
// counters: one JSON object, EngineStats' fields at its top level.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.engine.Stats()
	s.mu.Lock()
	stored, evicted := s.actions.count(), s.actions.evicted()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Uptime string `json:"uptime"`
		EngineStats
		ActionsStored  int             `json:"actionsStored"`
		ActionsEvicted uint64          `json:"actionsEvicted"`
		HTTPRequests   uint64          `json:"httpRequests"`
		Decode         LatencySnapshot `json:"decodeLatency"`
	}{es.Uptime.String(), es, stored, evicted, s.requests.Value(), latencySnapshot(s.decode.Histogram)})
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection may already be gone; nothing to do
}
