package cluster

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cordial/internal/ecc"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/obs"
	"cordial/internal/stream"
	"cordial/internal/wal"
	"cordial/internal/xrand"
)

var (
	simSeeds = flag.Int("sim.seeds", 300, "schedules the fleet simulation runs")
	simFrom  = flag.Uint64("sim.from", 0, "the fleet simulation's first schedule seed")
)

// simTTL is the simulated control plane's lease. Only an expire step moves
// the clock, by two leases.
const simTTL = time.Minute

// fabric is the simulation's network: it serves each request in this
// process, from the handler registered for its host. A host without one is
// unreachable. A fault armed on a host and path fails the next request to
// them before any handler sees it; a loss lets the handler serve it and
// fails the answer, as a timeout after the work landed does.
type fabric struct {
	mu     sync.Mutex
	hosts  map[string]http.Handler
	faults map[string]string // "host path" → "fault" or "lose"
}

func (f *fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Host + " " + req.URL.Path
	f.mu.Lock()
	h, fault := f.hosts[req.URL.Host], f.faults[key]
	delete(f.faults, key)
	f.mu.Unlock()
	switch {
	case fault == "fault":
		return nil, fmt.Errorf("sim: injected fault on %s", key)
	case h == nil:
		return nil, fmt.Errorf("sim: %s is unreachable", req.URL.Host)
	}
	if req.Body == nil {
		req.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if fault == "lose" {
		return nil, fmt.Errorf("sim: answer lost on %s", key)
	}
	return rec.Result(), nil
}

func (f *fabric) set(host string, h http.Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if h == nil {
		delete(f.hosts, host)
	} else {
		f.hosts[host] = h
	}
}

// simNode is one serve node as cordial-serve wires it in cluster mode: a
// durable engine on its own disk, its HTTP API and its agent, reachable at
// its ID.
type simNode struct {
	id     string
	disk   *wal.FaultFS
	armed  []string // the disk faults armed for this step: "write", "sync", "open"
	engine *stream.Engine
	api    *stream.Server
	agent  *Agent
	live   bool
	// waiting marks a node whose registration failed: it is up but no
	// member, as Run keeps it while it backs off, and it neither heartbeats
	// nor is checked until a join step or the finish registers it again.
	waiting bool
}

// sim is a fleet in one process on one fake clock: the real ControlPlane at
// host "cp", the real Router at host "router", and serve nodes, all talking
// over one fabric. Nothing runs in the background: no agent's Run, no
// router's Run, no control plane sweeper. Each step does its work and
// returns, so every wait is on the engines' own drain conditions.
type sim struct {
	root   string
	prof   *hbm.Profile
	srvCfg stream.ServerConfig
	clock  *obs.FakeClock
	net    *fabric
	client *http.Client
	cp     *ControlPlane
	router *Router
	nodes  map[string]*simNode
	order  []*simNode     // every node started, in start order
	acked  []mcelog.Event // every event the fleet acknowledged, in order
	counts map[uint64]int // acknowledged events by bank key
}

// newSim builds an empty fleet whose nodes keep their directories under root
// and pack addresses under prof (nil: hbm2e). maxBody caps request bodies at
// the nodes and the router (0: their defaults).
func newSim(root string, prof *hbm.Profile, maxBody int64) *sim {
	if prof == nil {
		prof = hbm.HBM2E
	}
	s := &sim{
		root: root, prof: prof, srvCfg: stream.ServerConfig{MaxBodyBytes: maxBody},
		clock:  obs.NewFakeClock(time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)),
		net:    &fabric{hosts: map[string]http.Handler{}, faults: map[string]string{}},
		nodes:  map[string]*simNode{},
		counts: map[uint64]int{},
	}
	s.client = &http.Client{Transport: s.net}
	s.router = NewRouter(RouterConfig{ControlPlane: "http://cp", MaxBodyBytes: maxBody, Backoff: time.Nanosecond, Logger: quiet, Client: s.client})
	s.net.set("router", s.router)
	s.startCP()
	return s
}

// startCP starts an empty control plane at host "cp", in place of any
// running there.
func (s *sim) startCP() {
	s.cp = NewControlPlane(CPConfig{VNodes: 16, HeartbeatTTL: simTTL, Logger: quiet, Client: s.client, Clock: s.clock})
	s.net.set("cp", s.cp.Handler())
}

// newSimT is newSim for one test, closed when it ends.
func newSimT(t *testing.T, prof *hbm.Profile, maxBody int64) *sim {
	s := newSim(t.TempDir(), prof, maxBody)
	t.Cleanup(s.close)
	return s
}

// start boots node id and makes it reachable; it does not register.
func (s *sim) start(id string) (*simNode, error) {
	dir, disk := filepath.Join(s.root, fmt.Sprint(len(s.order))), wal.NewFaultFS(wal.OSFS)
	engine, err := stream.New(stream.Config{
		Strategy:   &testStrategy{budget: 3},
		Profile:    s.prof,
		Shards:     2,
		Durability: stream.DurabilityConfig{Dir: dir, Sync: wal.SyncNever, FS: disk},
		Logger:     quiet,
		Clock:      s.clock,
	})
	if err != nil {
		return nil, err
	}
	api := stream.NewServer(engine, s.srvCfg)
	agent := NewAgent(AgentConfig{
		ControlPlane: "http://cp",
		Self:         Member{ID: id, Addr: id, WALDir: dir},
		Logger:       quiet,
		Client:       s.client,
	}, engine, api)
	mux := http.NewServeMux()
	mux.Handle("/cluster/", agent.Handler())
	mux.Handle("/", api)
	n := &simNode{id: id, disk: disk, engine: engine, api: api, agent: agent, live: true}
	s.nodes[id] = n
	s.order = append(s.order, n)
	s.net.set(id, mux)
	return n, nil
}

// stop takes a node off the fabric and closes its engine, which a crash
// equals (the directory keeps every acknowledged event), and waits until its
// server has collected every action the engine emitted.
func (s *sim) stop(n *simNode) {
	if !n.live {
		return
	}
	n.live = false
	s.net.set(n.id, nil)
	n.engine.Close()
	n.api.AwaitDrained()
}

func (s *sim) close() {
	for _, n := range s.order {
		s.stop(n)
	}
}

// join boots node id, unless it is up, and registers it as its agent's Run
// does first; a waiting node registers again. A node whose registration
// fails waits. Run retries after a backoff the fleet serves through, so
// the retry is the node's next join step, not an immediate one.
func (s *sim) join(id string) error {
	n := s.nodes[id]
	if n == nil {
		var err error
		if n, err = s.start(id); err != nil {
			return err
		}
	} else if !n.live || !n.waiting {
		return nil
	}
	err := n.agent.register()
	n.waiting = err != nil
	return err
}

// heartbeats lets every serving node heartbeat once.
func (s *sim) heartbeats() {
	for _, n := range s.order {
		if n.live && !n.waiting {
			n.agent.heartbeat()
		}
	}
}

// other reports whether a live node besides n is still a member.
func (s *sim) other(n *simNode) bool {
	for _, m := range s.cp.Descriptor().Members {
		if o := s.nodes[m.ID]; o != n && o != nil && o.live {
			return true
		}
	}
	return false
}

// leave departs a live node gracefully; it stops once the leave succeeded.
// The last live member does not leave.
func (s *sim) leave(id string) error {
	n := s.nodes[id]
	if n == nil || !n.live || !s.other(n) {
		return nil
	}
	if err := n.agent.Leave(); err != nil {
		return err
	}
	s.stop(n)
	return nil
}

// kill stops a live node without a word to the control plane; its directory
// stays for the takeover. The last live member is not killed.
func (s *sim) kill(id string) {
	if n := s.nodes[id]; n != nil && n.live && s.other(n) {
		s.stop(n)
	}
}

// expire moves the clock two leases on, renews the lease of every live node
// as its heartbeat does, and sweeps: every node that stopped is taken over.
func (s *sim) expire() {
	s.clock.Advance(2 * simTTL)
	s.heartbeats()
	s.cp.Sweep()
}

// post sends body to url over the fabric and decodes the ingest answer.
func (s *sim) post(url, contentType string, body []byte) (int, stream.IngestResult, error) {
	resp, err := s.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, stream.IngestResult{}, err
	}
	defer resp.Body.Close()
	var res stream.IngestResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	return resp.StatusCode, res, err
}

// postWire sends events to host's /v1/events.bin as wire frames.
func (s *sim) postWire(host string, evs []mcelog.Event) (int, stream.IngestResult, error) {
	var buf bytes.Buffer
	if err := mcelog.FromEvents(evs).WriteWire(s.prof, &buf); err != nil {
		return 0, stream.IngestResult{}, err
	}
	return s.post("http://"+host+"/v1/events.bin", "application/octet-stream", buf.Bytes())
}

func (s *sim) ring() *Ring {
	ring, err := BuildRing(s.cp.Descriptor())
	if err != nil {
		return nil // no member yet
	}
	return ring
}

// ingest sends the events whose banks a live node owns under the published
// ring, through the router or straight to each owner, and records what the
// fleet acknowledged. An owner whose disk fails writes refuses its events,
// and the router drops them after its retries; every other event must be
// acknowledged. A request a fault fails acknowledges nothing.
func (s *sim) ingest(evs []mcelog.Event, routed bool) error {
	ring := s.ring()
	if ring == nil {
		return nil
	}
	var sent, acked []mcelog.Event
	groups := map[string][]mcelog.Event{}
	for _, ev := range evs {
		owner := ring.OwnerID(s.prof.Layout.BankKey(ev.Addr))
		if n := s.nodes[owner]; n != nil && n.live {
			sent = append(sent, ev)
			groups[owner] = append(groups[owner], ev)
			if !slices.Contains(n.armed, "write") {
				acked = append(acked, ev)
			}
		}
	}
	if len(sent) == 0 {
		return nil
	}
	if routed {
		for try := 0; s.router.currentRing() == nil && try < 2; try++ {
			_ = s.router.refreshRing() // Run fetches its first ring until it has one
		}
		s.net.mu.Lock()
		door := s.net.faults["router /v1/events.bin"] != "" // fails the request before the router reads it
		s.net.mu.Unlock()
		status, res, err := s.postWire("router", sent)
		if door {
			return nil // nothing acknowledged
		}
		if err != nil || status != http.StatusOK || res.Accepted != len(acked) || res.Dropped != len(sent)-len(acked) {
			return fmt.Errorf("the router acknowledged %d of %d events, %d on a failing disk: %d %+v %v",
				res.Accepted, len(sent), len(sent)-len(acked), status, res, err)
		}
		s.record(acked)
		return nil
	}
	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		status, res, err := s.postWire(id, groups[id])
		if err != nil {
			continue // lost to a fault: nothing acknowledged
		}
		want, wantStatus := len(groups[id]), http.StatusOK
		if slices.Contains(s.nodes[id].armed, "write") {
			want, wantStatus = 0, http.StatusServiceUnavailable
		}
		if status != wantStatus || res.Accepted != want {
			return fmt.Errorf("owner %s acknowledged %d of %d events: %d %+v", id, res.Accepted, len(groups[id]), status, res)
		}
		s.record(groups[id][:want])
	}
	return nil
}

func (s *sim) record(evs []mcelog.Event) {
	s.acked = append(s.acked, evs...)
	for _, ev := range evs {
		s.counts[s.prof.Layout.BankKey(ev.Addr)]++
	}
}

// check lets every serving node heartbeat once, as the fleet does while it
// idles, and then holds it, quiescent, to its contract: every live node but a
// waiting one serves the published descriptor; every session it holds is one
// the published ring gives it, so no bank is held twice and a dropped bank
// stays dropped unless the ring gives it back; and every bank a live node
// owns holds every event acknowledged for it.
func (s *sim) check() error {
	s.net.mu.Lock()
	clear(s.net.faults) // a fault lasts one step
	s.net.mu.Unlock()
	for _, n := range s.order {
		n.disk.Disarm()
		n.armed = nil
	}
	s.heartbeats()
	desc, ring := s.cp.Descriptor(), s.ring()
	if ring == nil {
		return nil // no member yet
	}
	for _, n := range s.order {
		if !n.live {
			continue
		}
		if err := n.engine.Drain(0); err != nil {
			return err
		}
		if n.waiting {
			continue
		}
		n.agent.mu.Lock()
		var served Descriptor
		if n.agent.ring != nil {
			served = n.agent.ring.Descriptor()
		}
		n.agent.mu.Unlock()
		if !reflect.DeepEqual(served, desc) {
			return fmt.Errorf("%s serves epoch %d %v, the control plane publishes epoch %d %v",
				n.id, served.Epoch, memberIDs(served.Members), desc.Epoch, memberIDs(desc.Members))
		}
		for _, st := range n.engine.Sessions() {
			if owner := ring.OwnerID(s.prof.Layout.PackBank(st.Bank)); owner != n.id {
				return fmt.Errorf("%s holds bank %v, which epoch %d gives %s", n.id, st.Bank, desc.Epoch, owner)
			}
		}
	}
	for key, count := range s.counts {
		n := s.nodes[ring.OwnerID(key)]
		if !n.live {
			continue // dead and not yet taken over
		}
		bank := s.prof.Layout.UnpackBank(key)
		if st, ok := n.engine.Session(bank); !ok || st.Events != count {
			return fmt.Errorf("bank %v on its owner %s holds %d events (present %v), %d acknowledged",
				bank, n.id, st.Events, ok, count)
		}
	}
	return nil
}

// finish takes over every stopped node, registers every waiting one, checks
// the fleet once more, then holds it to one standalone engine fed every
// acknowledged event in order: per bank, the final owner's event count and
// the deduplicated actions the fleet emitted over its whole life equal the
// standalone engine's.
func (s *sim) finish() error {
	if err := s.check(); err != nil {
		return err
	}
	s.expire()
	for _, n := range s.order {
		if err := s.join(n.id); err != nil {
			return fmt.Errorf("the waiting %s failed to register at the end: %w", n.id, err)
		}
	}
	if err := s.check(); err != nil {
		return fmt.Errorf("after the final sweep: %w", err)
	}
	for _, m := range s.cp.Descriptor().Members {
		if !s.nodes[m.ID].live {
			return fmt.Errorf("the final sweep left the stopped %s in the ring", m.ID)
		}
	}
	ref, err := stream.New(stream.Config{Strategy: &testStrategy{budget: 3}, Profile: s.prof, Shards: 1, Logger: quiet, Clock: s.clock})
	if err != nil {
		return err
	}
	refAPI := stream.NewServer(ref, stream.ServerConfig{})
	defer func() { ref.Close(); refAPI.AwaitDrained() }()
	if _, _, err := ref.IngestBatch(s.acked); err != nil {
		return err
	}
	if err := ref.Drain(0); err != nil {
		return err
	}
	ring := s.ring()
	for _, want := range ref.Sessions() {
		n := s.nodes[ring.OwnerID(s.prof.Layout.PackBank(want.Bank))]
		if got, _ := n.engine.Session(want.Bank); got.Events != want.Events {
			return fmt.Errorf("bank %v: %d events on %s, %d on the standalone engine", want.Bank, got.Events, n.id, want.Events)
		}
	}
	s.close()
	ref.Close()
	refAPI.AwaitDrained()
	got := map[string]bool{}
	for _, n := range s.order {
		for k := range actionSet(n.api) {
			got[k] = true
		}
	}
	if want := actionSet(refAPI); !reflect.DeepEqual(got, want) {
		var missing, extra []string
		for k := range want {
			if !got[k] {
				missing = append(missing, k)
			}
		}
		for k := range got {
			if !want[k] {
				extra = append(extra, k)
			}
		}
		slices.Sort(missing)
		slices.Sort(extra)
		return fmt.Errorf("the fleet's actions differ from the standalone engine's: missing %v, extra %v", missing, extra)
	}
	return nil
}

// actionSet is a server's deduplicated actions, keyed as chaos compares them.
func actionSet(api *stream.Server) map[string]bool {
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/actions", nil))
	var out struct {
		Actions []struct {
			Kind, Bank, Class string
			Rows              []int
		}
	}
	_ = json.NewDecoder(rec.Body).Decode(&out)
	set := map[string]bool{}
	for _, a := range out.Actions {
		set[fmt.Sprintf("%s|%s|%v|%s", a.Kind, a.Bank, a.Rows, a.Class)] = true
	}
	return set
}

// simStep is one step of a schedule: "join", "leave", "kill" or "snapshot"
// node; "routed" or "direct" ingest of evs; "expire" (the stopped nodes'
// leases run out, then a sweep); "refresh" (the router fetches the ring);
// "fault" or "lose" (the next request to node's path fails, or is served and
// its answer lost, during the next step only); "disk" (node's disk fails
// every operation of the kind path names, "write", "sync" or "open", during
// the next step only); "sweepjoin" (an expire whose sweep races node's join); or "restart"
// (the control plane restarts empty).
type simStep struct {
	op, node, path string
	evs            []mcelog.Event
}

func (st simStep) String() string {
	s := strings.Join(strings.Fields(st.op+" "+st.node+" "+st.path), " ")
	if len(st.evs) > 0 {
		s += fmt.Sprintf(" %d events", len(st.evs))
	}
	return s
}

// step runs one step. Refusals the protocol allows (a join or leave a fault
// breaks) are outcomes, not errors; an error is a broken property.
func (s *sim) step(st simStep) error {
	switch st.op {
	case "join":
		_ = s.join(st.node)
	case "leave":
		_ = s.leave(st.node)
	case "kill":
		s.kill(st.node)
	case "snapshot":
		if n := s.nodes[st.node]; n != nil && n.live {
			if _, err := n.engine.Snapshot(); err != nil && n.armed == nil {
				return err
			}
		}
	case "routed", "direct":
		return s.ingest(st.evs, st.op == "routed")
	case "expire":
		s.expire()
	case "refresh":
		_ = s.router.refreshRing()
	case "restart":
		// Nodes re-register off their heartbeats' 404s, some only once
		// another's join has failed and carried the epochs past theirs.
		s.startCP()
		for range s.order {
			s.heartbeats()
		}
	case "fault", "lose":
		s.net.mu.Lock()
		s.net.faults[st.node+" "+st.path] = st.op
		s.net.mu.Unlock()
	case "disk":
		if n := s.nodes[st.node]; n != nil && n.live {
			n.armed = append(n.armed, st.path)
			switch st.path {
			case "write":
				n.disk.LimitWriteBytes(0)
			case "sync":
				n.disk.FailSyncAfter(0)
			case "open":
				n.disk.FailOpens(true)
			}
		}
	case "sweepjoin":
		s.clock.Advance(2 * simTTL)
		s.heartbeats()
		n, err := s.start(st.node)
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() { defer close(done); s.cp.Sweep() }()
		err = n.agent.register()
		<-done
		if err != nil { // it lost the race to a member still dead: Run registers again
			return n.agent.register()
		}
	}
	return nil
}

// runSim plays steps on a fresh fleet under root, checking it after every
// step but a fault, a loss or a disk fault, and finishes it.
func runSim(root string, steps []simStep) error {
	dir, err := os.MkdirTemp(root, "sim")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := newSim(dir, nil, 0)
	defer s.close()
	for i, st := range steps {
		if err := s.step(st); err != nil {
			return fmt.Errorf("step %d (%v): %w", i, st, err)
		}
		if st.op == "fault" || st.op == "lose" || st.op == "disk" {
			continue
		}
		if err := s.check(); err != nil {
			return fmt.Errorf("after step %d (%v): %w", i, st, err)
		}
	}
	return s.finish()
}

// simFaultPaths are the requests a fault step may fail, by host: a node's
// handoff calls and forwards, the router's ingest door, and the control
// plane's ring fetches, registrations and heartbeats. A loss may take the
// answer of a handoff call and of nothing else: a lost ingest answer leaves
// the client unsure what the fleet holds, which the oracle cannot count, and
// a lost registration answer leaves a member that does not know it is one
// and stops heartbeating, a partition (ROADMAP item 2(b)).
var simFaultPaths = []struct {
	host, path string
	lose       bool
}{
	{"node", "/cluster/v1/export", true}, {"node", "/cluster/v1/import", true}, {"node", "/cluster/v1/drop", true},
	{"node", "/v1/events.bin", false}, {"router", "/v1/events.bin", false},
	{"cp", "/cluster/v1/ring", false}, {"cp", "/cluster/v1/register", false}, {"cp", "/cluster/v1/heartbeat", false},
}

// genSimSchedule draws a schedule: a first join, then ingest, joins (of new
// nodes and of known ones, which a waiting node retries), leaves, kills,
// expiries, snapshots, ring refreshes, disk faults and request faults over up
// to 24 banks.
func genSimSchedule(seed uint64) []simStep {
	r := xrand.New(seed)
	banks, sec, joined := 8+r.Intn(17), 0, 1
	steps := []simStep{{op: "join", node: "n1"}}
	events := func(n int) []mcelog.Event {
		evs := make([]mcelog.Event, n)
		for i := range evs {
			if evs[i] = clusterUER(clusterBank(r.Intn(banks)), 1+r.Intn(8), sec); r.Intn(4) == 0 {
				evs[i].Class = ecc.ClassCE
			}
			sec++
		}
		return evs
	}
	node := func() string { return fmt.Sprintf("n%d", 1+r.Intn(joined)) }
	next := func() string { return fmt.Sprintf("n%d", 1+r.Intn(joined+1)) } // the next joiner too
	for n := 8 + r.Intn(17); len(steps) < n; {
		var st simStep
		switch k := r.Intn(100); {
		case k < 24:
			st = simStep{op: "routed", evs: events(1 + r.Intn(24))}
		case k < 36:
			st = simStep{op: "direct", evs: events(1 + r.Intn(12))}
		case k < 42:
			joined++
			st = simStep{op: "join", node: fmt.Sprintf("n%d", joined)}
		case k < 48:
			st = simStep{op: "join", node: node()}
		case k < 54:
			st = simStep{op: "leave", node: node()}
		case k < 61:
			st = simStep{op: "kill", node: node()}
		case k < 69:
			st = simStep{op: "expire"}
		case k < 75:
			st = simStep{op: "snapshot", node: node()}
		case k < 81:
			st = simStep{op: "refresh"}
		case k < 87:
			st = simStep{op: "disk", node: node(), path: []string{"write", "sync", "open"}[r.Intn(3)]}
		default:
			f := simFaultPaths[r.Intn(len(simFaultPaths))]
			st = simStep{op: "fault", node: f.host, path: f.path}
			if f.host == "node" {
				st.node = next()
			}
			if f.lose && r.Intn(2) == 0 {
				st.op = "lose"
			}
		}
		steps = append(steps, st)
	}
	return steps
}

// TestFleetSimulation is the cluster's correctness gate: seeded schedules
// played on the simulated fleet, each held to sim.check after every step and
// to the standalone engine at its end. A failing schedule is shrunk and
// printed with its seed (rerun it with -args -sim.from=SEED -sim.seeds=1).
func TestFleetSimulation(t *testing.T) {
	root := t.TempDir()
	seed, failed := firstFailing(root, *simFrom, *simSeeds)
	if !failed {
		return
	}
	steps := genSimSchedule(seed)
	err := runSim(root, steps)
	for runs, shrunk := 0, true; shrunk && runs < 200; { // drop chunks of steps while it still fails
		shrunk = false
		for chunk := len(steps) / 2; chunk >= 1; chunk /= 2 {
			for i := 0; i+chunk <= len(steps) && runs < 200; runs++ {
				cand := append(append([]simStep(nil), steps[:i]...), steps[i+chunk:]...)
				if cerr := runSim(root, cand); cerr != nil {
					steps, err, shrunk = cand, cerr, true
				} else {
					i += chunk
				}
			}
		}
	}
	var b strings.Builder
	for i, st := range steps {
		fmt.Fprintf(&b, "  %2d %v\n", i, st)
	}
	t.Fatalf("seed %d: %v\nshrunk to %d steps:\n%s", seed, err, len(steps), b.String())
}

// firstFailing runs the schedules of n seeds from from on eight workers, most
// of a schedule's time being its nodes' fsyncs, and returns the lowest seed
// whose schedule fails.
func firstFailing(root string, from uint64, n int) (uint64, bool) {
	seeds := make(chan uint64)
	var mu sync.Mutex
	first, failed := uint64(0), false
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				if runSim(root, genSimSchedule(seed)) != nil {
					mu.Lock()
					if !failed || seed < first {
						first = seed
					}
					failed = true
					mu.Unlock()
				}
			}
		}()
	}
	for seed := from; seed < from+uint64(n); seed++ {
		mu.Lock()
		done := failed
		mu.Unlock()
		if done {
			break
		}
		seeds <- seed
	}
	close(seeds)
	wg.Wait()
	return first, failed
}
