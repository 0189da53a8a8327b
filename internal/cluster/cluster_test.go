package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/features"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/stream"
)

// testStrategy is a minimal durable strategy: it tracks distinct UER rows
// per bank and isolates each row once a budget is reached. Deterministic
// EncodeState makes handoff bit-identity assertions possible.
type testStrategy struct{ budget int }

func (*testStrategy) Name() string { return "cluster-test" }

func (s *testStrategy) NewSession(bank hbm.BankAddress) core.Session {
	return &testSession{strategy: s, rows: make(map[int]bool)}
}

func (s *testStrategy) RestoreSession(bank hbm.BankAddress, data []byte) (core.Session, error) {
	var img struct {
		Rows       []int
		Classified bool
	}
	if err := json.Unmarshal(data, &img); err != nil {
		return nil, err
	}
	sess := &testSession{strategy: s, rows: make(map[int]bool), classified: img.Classified}
	for _, r := range img.Rows {
		sess.rows[r] = true
	}
	return sess, nil
}

type testSession struct {
	strategy   *testStrategy
	rows       map[int]bool
	classified bool
}

func (s *testSession) Class() (faultsim.Class, bool) { return 0, false }

func (s *testSession) StateFootprint() (features.StateFootprint, bool) {
	return features.StateFootprint{}, false
}

func (s *testSession) OnEvent(e mcelog.Event) core.Decision { return s.Decide(e, nil) }

func (s *testSession) Decide(e mcelog.Event, _ *core.DecisionBuffer) core.Decision {
	if e.Class != ecc.ClassUER {
		return core.Decision{}
	}
	s.rows[e.Addr.Row] = true
	if len(s.rows) >= s.strategy.budget {
		s.classified = true
		return core.Decision{IsolateRows: []int{e.Addr.Row}}
	}
	return core.Decision{}
}

func (s *testSession) EncodeState() ([]byte, error) {
	rows := make([]int, 0, len(s.rows))
	for r := range s.rows {
		rows = append(rows, r)
	}
	sort.Ints(rows)
	return json.Marshal(struct {
		Rows       []int
		Classified bool
	}{rows, s.classified})
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func clusterBank(i int) hbm.BankAddress {
	return hbm.BankAddress{Node: uint32(i % 8), NPU: uint8(i / 8 % 8), BankGroup: uint8(i / 64 % 4), Bank: uint8(i % 4)}
}

func clusterUER(bank hbm.BankAddress, row, sec int) mcelog.Event {
	return mcelog.Event{
		Time:  time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second),
		Addr:  hbm.CellInBank(bank, row, 0),
		Class: ecc.ClassUER,
	}
}

// uerRows is rows from..to of UERs in each of the first banks banks.
func uerRows(banks, from, to int) []mcelog.Event {
	var evs []mcelog.Event
	for b := 0; b < banks; b++ {
		for r := from; r <= to; r++ {
			evs = append(evs, clusterUER(clusterBank(b), r, b*100+r))
		}
	}
	return evs
}

// postBody posts body to url over the fabric and decodes the ingest answer.
func (s *sim) postBody(t *testing.T, url, contentType string, body []byte) (int, stream.IngestResult) {
	t.Helper()
	status, res, err := s.post(url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, res
}

// postEvents posts a JSONL batch to host.
func (s *sim) postEvents(t *testing.T, host string, events []mcelog.Event) (int, stream.IngestResult) {
	t.Helper()
	var buf bytes.Buffer
	if err := mcelog.FromEvents(events).WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return s.postBody(t, "http://"+host+"/v1/events", "application/x-ndjson", buf.Bytes())
}

// postEventsBin posts the same batch as wire frames packed under the fleet's
// profile.
func (s *sim) postEventsBin(t *testing.T, host string, events []mcelog.Event) (int, stream.IngestResult) {
	t.Helper()
	status, res, err := s.postWire(host, events)
	if err != nil {
		t.Fatal(err)
	}
	return status, res
}

// mustJoin joins each node and fails the test if one is refused.
func (s *sim) mustJoin(t *testing.T, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := s.join(id); err != nil {
			t.Fatalf("join %s: %v", id, err)
		}
	}
}

// drained drains every live engine, so that what was acknowledged is folded.
func (s *sim) drained(t *testing.T) {
	t.Helper()
	for _, n := range s.order {
		if n.live {
			if err := n.engine.Drain(0); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// ingestAtOwners posts each of the first banks banks' rows 1..rowsPer straight
// to its owner under the published ring, and fails the test unless victim
// owns one of them.
func (s *sim) ingestAtOwners(t *testing.T, banks, rowsPer int, victim string) {
	t.Helper()
	evs, held := uerRows(banks, 1, rowsPer), false
	for b := 0; b < banks; b++ {
		id := s.ring().OwnerID(clusterBank(b).BankKey())
		held = held || id == victim
		if status, res := s.postEvents(t, id, evs[b*rowsPer:(b+1)*rowsPer]); status != http.StatusOK || res.Accepted != rowsPer {
			t.Fatalf("ingest at %s: status %d result %+v", id, status, res)
		}
	}
	if !held {
		t.Fatalf("no banks on %s; widen the bank set", victim)
	}
	s.drained(t)
}

// TestClusterJoinHandoffLeave walks the live-rebalance protocol: a
// second node joins a loaded single-node cluster and receives exactly
// the banks the ring moves (the source drops them); ingest is fenced by
// ownership on both sides; a graceful leave returns everything.
func TestClusterJoinHandoffLeave(t *testing.T) {
	s := newSimT(t, nil, 0)
	s.mustJoin(t, "n1")
	n1 := s.nodes["n1"]

	// Load 8 banks, 4 UER rows each, through the single node.
	const banks, rowsPer = 8, 4
	events := uerRows(banks, 1, rowsPer)
	if status, res := s.postEvents(t, "n1", events); status != http.StatusOK || res.Accepted != len(events) {
		t.Fatalf("seed ingest: status %d result %+v", status, res)
	}
	s.drained(t)

	s.mustJoin(t, "n2")
	n2 := s.nodes["n2"]
	// Agents adopt an epoch when they are fenced, before any state moves;
	// the control plane publishes it once the handoff behind it is done.
	if n1.agent.Epoch() != 2 || n2.agent.Epoch() != 2 || s.cp.Descriptor().Epoch != 2 {
		t.Fatalf("after the join: n1 at %d, n2 at %d, published %d, want 2", n1.agent.Epoch(), n2.agent.Epoch(), s.cp.Descriptor().Epoch)
	}

	// Placement: every bank's session lives exactly on its ring owner,
	// with its full pre-join history (stats moved with the state).
	ring := s.ring()
	moved := 0
	var n2Bank hbm.BankAddress
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		owner := ring.OwnerID(bank.BankKey())
		ownerNode, otherNode := n1, n2
		if owner == "n2" {
			ownerNode, otherNode = n2, n1
			n2Bank = bank
			moved++
		}
		st, ok := ownerNode.engine.Session(bank)
		if !ok || st.Events != rowsPer {
			t.Fatalf("bank %v: owner %s session ok=%v stats=%+v, want %d events", bank, owner, ok, st, rowsPer)
		}
		if _, ok := otherNode.engine.Session(bank); ok {
			t.Errorf("bank %v: non-owner still holds a session after drop", bank)
		}
	}
	if moved == 0 {
		t.Fatal("ring moved no test banks to the joiner; widen the bank set")
	}
	// Each node adopts each epoch once, however many calls carry it.
	if a1, a2 := n1.agent.adoptions.Value(), n2.agent.adoptions.Value(); a1 != 2 || a2 != 1 {
		t.Fatalf("n1 adopted %d rings and n2 %d, want 2 and 1", a1, a2)
	}

	// Ownership fences ingest: a bank owned by n2 is refused by n1 with
	// the not-owned marker and the current epoch.
	status, res := s.postEvents(t, "n1", []mcelog.Event{clusterUER(n2Bank, 9, 999)})
	if status != http.StatusServiceUnavailable || res.NotOwned != 1 || res.Epoch != 2 {
		t.Fatalf("fenced ingest: status %d result %+v, want 503 notOwned=1 epoch=2", status, res)
	}

	// Graceful leave: n1 gets everything back, history intact.
	if err := s.leave("n2"); err != nil {
		t.Fatal(err)
	}
	if n1.agent.Epoch() != 3 || s.cp.Descriptor().Epoch != 3 {
		t.Fatalf("after the leave: n1 at %d, published %d, want 3", n1.agent.Epoch(), s.cp.Descriptor().Epoch)
	}
	for b := 0; b < banks; b++ {
		st, ok := n1.engine.Session(clusterBank(b))
		if !ok || st.Events != rowsPer {
			t.Fatalf("bank %v after leave: ok=%v stats=%+v, want %d events", clusterBank(b), ok, st, rowsPer)
		}
	}
	if got := s.cp.Descriptor(); len(got.Members) != 1 || got.Epoch != 3 {
		t.Fatalf("descriptor after leave: %+v", got)
	}
}

// TestRouterRoutesAndRetriesStaleRing: the router splits batches by
// owner; when its ring goes stale (a node joined and banks moved), the
// fenced nodes' 503s drive a refresh-and-resend of exactly the
// unconsumed suffix, and no line is lost or double-applied.
func TestRouterRoutesAndRetriesStaleRing(t *testing.T) {
	s := newSimT(t, nil, 0)
	s.mustJoin(t, "n1", "n2")
	if err := s.router.refreshRing(); err != nil {
		t.Fatal(err)
	}

	const banks, rowsPer = 8, 2
	batch := uerRows(banks, 1, rowsPer)
	if status, res := s.postEvents(t, "router", batch); status != http.StatusOK || res.Accepted != len(batch) {
		t.Fatalf("routed ingest: status %d result %+v", status, res)
	}

	// Make the router's ring stale: a third node joins and takes banks.
	s.mustJoin(t, "n3")
	if s.router.currentRing().Epoch() != 2 || s.cp.Descriptor().Epoch != 3 {
		t.Fatalf("router at epoch %d, published %d: want a stale router", s.router.currentRing().Epoch(), s.cp.Descriptor().Epoch)
	}

	second := uerRows(banks, rowsPer+1, 2*rowsPer)
	if status, res := s.postEvents(t, "router", second); status != http.StatusOK || res.Accepted != len(second) {
		t.Fatalf("stale-ring ingest: status %d result %+v", status, res)
	}
	if s.router.failures.Value() != 0 || s.router.retries.Value() == 0 {
		t.Fatalf("router abandoned %d batches after %d retries, want none after some", s.router.failures.Value(), s.router.retries.Value())
	}

	// Every bank's full history sits exactly on its current owner.
	s.drained(t)
	ring := s.ring()
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		for id, n := range s.nodes {
			st, ok := n.engine.Session(bank)
			if owner := id == ring.OwnerID(bank.BankKey()); owner && (!ok || st.Events != 2*rowsPer) {
				t.Errorf("bank %v on its owner %s: ok=%v stats=%+v, want %d events", bank, id, ok, st, 2*rowsPer)
			} else if !owner && ok {
				t.Errorf("bank %v: stale session on non-owner %s", bank, id)
			}
		}
	}
}

// TestTakeoverDeadNode: a node that stops heartbeating is declared dead;
// the control plane rebuilds its sessions from its journal (no snapshot
// ever written) and the survivor adopts them with full history.
func TestTakeoverDeadNode(t *testing.T) {
	s := newSimT(t, nil, 0)
	s.mustJoin(t, "n1", "n2")
	const banks, rowsPer = 8, 4
	s.ingestAtOwners(t, banks, rowsPer, "n2")

	// Kill n2: no more heartbeats, unreachable. Its journal stays on disk.
	s.kill("n2")
	s.expire()

	if got := s.cp.Descriptor(); len(got.Members) != 1 || got.Members[0].ID != "n1" {
		t.Fatalf("descriptor after takeover: %+v", got)
	}
	// The survivor holds every bank with full history, rebuilt for the
	// dead node's banks from its journal alone.
	n1 := s.nodes["n1"]
	s.drained(t)
	for b := 0; b < banks; b++ {
		if st, ok := n1.engine.Session(clusterBank(b)); !ok || st.Events != rowsPer {
			t.Fatalf("bank %v after takeover: ok=%v stats=%+v, want %d events", clusterBank(b), ok, st, rowsPer)
		}
	}
	if n1.agent.Epoch() != 3 {
		t.Fatalf("n1 serves epoch %d after the takeover, want 3", n1.agent.Epoch())
	}
	if takeovers := s.cp.takeovers.Value(); takeovers != 1 {
		t.Fatalf("takeovers counter = %d, want 1", takeovers)
	}
}

// TestSweepRacesConcurrentJoin drives the dead-node sweep and a fresh
// node's join into the control plane at the same moment. The two
// topology mutations serialise on the topo lock in whichever order the
// race resolves, and each re-reads membership and fences with its own
// fresh epoch — so the final ring must contain exactly the survivor and
// the joiner, every bank's state must live on its final ring owner with
// nothing lost, and no stale owner may still accept ingest for a moved
// bank (the double-ownership failure this guards against).
func TestSweepRacesConcurrentJoin(t *testing.T) {
	s := newSimT(t, nil, 0)
	s.mustJoin(t, "n1", "n2")
	const banks, rowsPer = 8, 4
	s.ingestAtOwners(t, banks, rowsPer, "n2")

	// Kill n2, then fire the sweep and n3's join together.
	s.kill("n2")
	if err := s.step(simStep{op: "sweepjoin", node: "n3"}); err != nil {
		t.Fatal(err)
	}
	if takeovers := s.cp.takeovers.Value(); takeovers != 1 {
		t.Fatalf("takeovers counter = %d, want 1", takeovers)
	}

	// Whatever order the race resolved in, two mutations happened on top
	// of epoch 2: the ring is at epoch 4 with exactly {n1, n3}. A join that
	// went first failed on the dead n2, and its abort and retry took two
	// epochs more.
	desc := s.cp.Descriptor()
	if want := 4 + 2*s.cp.errors.Value(); desc.Epoch != want {
		t.Errorf("final epoch = %d, want %d (two serialised mutations, %d aborted)", desc.Epoch, want, s.cp.errors.Value())
	}
	if ids := memberIDs(desc.Members); len(ids) != 2 || ids[0] != "n1" || ids[1] != "n3" {
		t.Fatalf("final members = %v, want exactly {n1, n3}", ids)
	}
	if err := s.check(); err != nil {
		t.Fatal(err)
	}

	// No bank lost, none duplicated: every bank's full session sits on
	// its final ring owner, and the other node refuses ingest for it.
	ring := s.ring()
	for b := 0; b < banks; b++ {
		bank := clusterBank(b)
		owner := ring.OwnerID(bank.BankKey())
		if st, ok := s.nodes[owner].engine.Session(bank); !ok || st.Events != rowsPer {
			t.Errorf("bank %v on %s: ok=%v stats=%+v, want %d events", bank, owner, ok, st, rowsPer)
		}
		for _, id := range []string{"n1", "n3"} {
			if id == owner {
				continue
			}
			probe := []mcelog.Event{clusterUER(bank, rowsPer+1, b*100+99)}
			if status, res := s.postEvents(t, id, probe); status != http.StatusServiceUnavailable || res.Accepted != 0 {
				t.Errorf("non-owner %s accepted ingest for bank %v: status %d %+v (double ownership)", id, bank, status, res)
			}
		}
	}
}

// simRegressions are schedules TestFleetSimulation failed on, as it shrank
// them, each named for the defect, found or planted as a catalogued mutant,
// it failed on.
var simRegressions = map[string][]simStep{
	"a failed join's epoch reused": {{op: "join", node: "n1"},
		{op: "fault", node: "n2", path: "/cluster/v1/import"}, {op: "join", node: "n2"}},
	// n1 served the failed join's ring under the epoch n3's join then
	// published for another membership, dropped banks the published ring gave
	// it and never exported one to n3.
	"a failed join's epoch reused for another membership": {{op: "join", node: "n1"}, {op: "routed", evs: uerRows(16, 1, 1)},
		{op: "fault", node: "n2", path: "/cluster/v1/import"}, {op: "join", node: "n2"}, {op: "join", node: "n3"}},
	"a failed joiner's imports kept at its rejoin": {{op: "join", node: "n1"}, {op: "routed", evs: uerRows(8, 1, 1)},
		{op: "lose", node: "n2", path: "/cluster/v1/import"}, {op: "fault", node: "n2", path: "/cluster/v1/drop"},
		{op: "join", node: "n2"}, {op: "routed", evs: uerRows(8, 2, 2)}, {op: "join", node: "n2"}},
	"a live member's missed heartbeat swept with the dead": {{op: "join", node: "n1"}, {op: "join", node: "n2"},
		{op: "routed", evs: uerRows(6, 1, 1)}, {op: "kill", node: "n2"},
		{op: "fault", node: "cp", path: "/cluster/v1/heartbeat"}, {op: "expire"}},
	"a failed joiner emptied after a control-plane restart": {{op: "join", node: "n1"}, {op: "join", node: "n2"},
		{op: "routed", evs: uerRows(8, 1, 1)}, {op: "fault", node: "n1", path: "/cluster/v1/export"}, {op: "restart"}},
	"a failed takeover distribution committed anyway": {{op: "join", node: "n1"}, {op: "direct", evs: uerRows(8, 1, 1)},
		{op: "join", node: "n2"}, {op: "kill", node: "n1"}, {op: "fault", node: "n2", path: "/cluster/v1/import"}, {op: "expire"}},
	"a failed leave's epoch left on the survivors": {{op: "join", node: "n1"}, {op: "join", node: "n2"},
		{op: "join", node: "n3"}, {op: "kill", node: "n2"}, {op: "leave", node: "n3"}},
	"a missed post-handoff drop kept for good": {{op: "join", node: "n1"}, {op: "direct", evs: uerRows(3, 1, 1)},
		{op: "fault", node: "n1", path: "/cluster/v1/drop"}, {op: "join", node: "n3"}},
	"two dead nodes never taken over": {{op: "join", node: "n1"}, {op: "join", node: "n2"},
		{op: "routed", evs: uerRows(6, 1, 1)}, {op: "join", node: "n3"}, {op: "kill", node: "n1"}, {op: "kill", node: "n3"}},
	// n1's takeover import adopted n2's banks and then failed to snapshot
	// them; the sweep aborted and its drop was lost, and n1, not stale, kept
	// banks the ring gave n2.
	"a failed import's adopted sessions kept": {{op: "join", node: "n1"}, {op: "join", node: "n2"},
		{op: "direct", evs: uerRows(8, 1, 1)}, {op: "kill", node: "n2"}, {op: "disk", node: "n1", path: "write"},
		{op: "fault", node: "n1", path: "/cluster/v1/drop"}, {op: "expire"}},
	"an import acknowledged before its sessions were on disk": {{op: "join", node: "n1"}, {op: "join", node: "n2"},
		{op: "join", node: "n3"}, {op: "routed", evs: uerRows(12, 1, 1)}, {op: "disk", node: "n1", path: "write"},
		{op: "leave", node: "n3"}, {op: "kill", node: "n1"}, {op: "expire"}},
}

func TestSimRegressions(t *testing.T) {
	for name, steps := range simRegressions {
		if err := runSim(t.TempDir(), steps); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestRouterCodecMatrix: either client codec delivers the same batch — the
// router forwards wire frames upstream whichever arrived — and either
// answers a body over MaxBodyBytes as the serve node does: 413, with the
// counts of the prefix that was read and forwarded.
func TestRouterCodecMatrix(t *testing.T) {
	s := newSimT(t, nil, 4096)
	s.mustJoin(t, "n1", "n2")
	if err := s.router.refreshRing(); err != nil {
		t.Fatal(err)
	}

	codecs := []struct {
		name string
		post func(*sim, *testing.T, string, []mcelog.Event) (int, stream.IngestResult)
	}{
		{"jsonl-in binary-up", (*sim).postEvents},
		{"binary-in binary-up", (*sim).postEventsBin},
	}
	for _, tc := range codecs {
		t.Run(tc.name, func(t *testing.T) {
			var batch []mcelog.Event
			for b := 0; b < 8; b++ {
				batch = append(batch, clusterUER(clusterBank(b), 1, b))
			}
			status, res := tc.post(s, t, "router", batch)
			if status != http.StatusOK || res.Accepted != len(batch) {
				t.Fatalf("%s: status %d result %+v", tc.name, status, res)
			}

			// 400 events are over the 4 KiB cap in either codec. The JSONL
			// lines under the cap were read, so they are routed and counted;
			// the one wire frame is cut short, so nothing of it is.
			for b := 0; len(batch) < 400; b++ {
				batch = append(batch, clusterUER(clusterBank(b%8), 2+b/8, 8+b))
			}
			status, res = tc.post(s, t, "router", batch)
			if status != http.StatusRequestEntityTooLarge || !res.Truncated || res.Accepted >= len(batch) {
				t.Fatalf("%s: over-cap body: status %d result %+v, want 413 and a truncated prefix", tc.name, status, res)
			}
			if strings.HasPrefix(tc.name, "jsonl") && res.Accepted == 0 {
				t.Fatalf("%s: over-cap body: result %+v, want the lines under the cap accepted", tc.name, res)
			}
		})
	}

	// A ddr5-dimm cluster: the router learns the profile from the ring, so rows
	// 100 and 40000 of a bank in bank group 4 — a row and a bank group hbm2e
	// cannot encode — decode, key and reach one owner over both codecs.
	t.Run("ddr5-dimm", func(t *testing.T) {
		s := newSimT(t, hbm.DDR5DIMM, 0)
		s.mustJoin(t, "n1", "n2")
		if err := s.router.refreshRing(); err != nil {
			t.Fatal(err)
		}
		bank := hbm.BankAddress{Node: 3, NPU: 1, HBM: 1, Channel: 5, Rank: 1, Device: 2, BankGroup: 4, Bank: 1}
		for i, tc := range codecs {
			batch := []mcelog.Event{clusterUER(bank, 100, 2*i), clusterUER(bank, 40000, 2*i+1)}
			if status, res := tc.post(s, t, "router", batch); status != http.StatusOK || res.Accepted != 2 || res.Rejected != 0 {
				t.Fatalf("%s: status %d result %+v, want both rows accepted", tc.name, status, res)
			}
		}
		s.drained(t)
		st1, ok1 := s.nodes["n1"].engine.Session(bank)
		st2, ok2 := s.nodes["n2"].engine.Session(bank)
		if ok1 == ok2 || st1.Events+st2.Events != 4 {
			t.Fatalf("the bank on n1 (%v, %d events) and n2 (%v, %d events), want all four events on one owner", ok1, st1.Events, ok2, st2.Events)
		}
		// The first registration fixed the cluster's profile: a node that runs
		// another is refused.
		var se *statusError
		err := postJSON(s.client, "http://cp/cluster/v1/register",
			registerRequest{Member: Member{ID: "n3", Addr: "n3"}, Profile: "hbm2e"}, nil)
		if !errors.As(err, &se) || se.Status != http.StatusConflict || s.cp.Descriptor().Profile != "ddr5-dimm" {
			t.Fatalf("an hbm2e node registering: %v, want 409 from the ddr5-dimm cluster", err)
		}
	})
}

// TestRouterRejectsStrayAddressBits: a wire record whose packed address has
// bits outside the layout counts as rejected at the router — re-encoded, it
// would reach its owner as the valid bank those bits alias it onto — and the
// rest of its frame is forwarded.
func TestRouterRejectsStrayAddressBits(t *testing.T) {
	s := newSimT(t, nil, 0)
	s.mustJoin(t, "n1")
	if err := s.router.refreshRing(); err != nil {
		t.Fatal(err)
	}

	bank := clusterBank(1)
	var buf bytes.Buffer
	if err := mcelog.FromEvents([]mcelog.Event{clusterUER(bank, 1, 0), clusterUER(bank, 2, 1), clusterUER(bank, 3, 2)}).WriteWire(hbm.HBM2E, &buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	const magic = 4 // "CBF2"; the frame header follows: u32 length | u32 CRC-32C
	payload := body[magic+8:]
	payload[mcelog.WireRecordSize+8+7] |= 1 << 4 // bit 60 of record 1's packed address (bytes 8–15, little-endian)
	binary.LittleEndian.PutUint32(body[magic+4:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))

	status, res := s.postBody(t, "http://router/v1/events.bin", "application/octet-stream", body)
	if status != http.StatusOK || res.Accepted != 2 || res.Rejected != 1 || len(res.Errors) != 1 ||
		!strings.HasPrefix(res.Errors[0], "frame 1 record 1: ") {
		t.Fatalf("routed ingest: status %d result %+v, want 2 accepted and record 1 rejected", status, res)
	}
	s.drained(t)
	if st, ok := s.nodes["n1"].engine.Session(bank); !ok || st.Events != 2 {
		t.Fatalf("the owner holds ok=%v %+v, want the 2 forwarded records", ok, st)
	}
}
