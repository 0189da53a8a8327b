package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cordial/internal/hbm"
	"cordial/internal/mcelog"
)

// RunOptions configures a scenario run.
type RunOptions struct {
	// BinDir holds prebuilt cordial-serve/control/router binaries. Empty
	// means build them from the module source into the work dir (requires
	// running inside the repo).
	BinDir string
	// WorkDir is the scratch directory for WALs and built binaries; empty
	// means a fresh temp dir, removed afterwards on a passing run.
	WorkDir string
	// Seed overrides the scenario seed when nonzero.
	Seed uint64
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// fleetDaemons groups the running processes of one scenario. The router is
// the front door: load, poison and probes go through it.
type fleetDaemons struct {
	control *Daemon
	router  *Daemon
	nodes   []*Daemon // index i is node-(i+1); entries stay after kills
}

// The fleet's fixed settings: the serve nodes' self-training seed and fsync
// policy, their heartbeat, the control plane's lease and sweep, and the
// router's retries and ring refresh — short, so a kill is taken over within
// seconds.
const (
	trainSeed        = "7"
	fsyncPolicy      = "never"
	heartbeat        = 100 * time.Millisecond
	heartbeatTTL     = time.Second
	sweepInterval    = 300 * time.Millisecond
	routerMaxAttempt = "8"
	routerRefresh    = 200 * time.Millisecond
)

// serveBinaries are the daemons a scenario needs.
var serveBinaries = []string{"cordial-serve", "cordial-control", "cordial-router"}

// run state shared between the load loop, the chaos timers and the
// probes.
type runState struct {
	sc    *Scenario
	plan  *Plan
	fleet *fleetDaemons
	opts  RunOptions

	client *http.Client
	logf   func(format string, args ...any)

	loadStart time.Time

	mu          sync.Mutex
	chaosRecs   []ChaosRecord
	kills       int
	poisonSent  int
	poisonAccpt int

	probeStop chan struct{}
	probeWG   sync.WaitGroup
	probes    ProbeReport

	chaosWG sync.WaitGroup
}

// Run executes the scenario end to end and returns its report. A non-nil
// report may accompany an error when the run got far enough to be worth
// recording.
func Run(sc *Scenario, opts RunOptions) (*Report, error) {
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(opts.Log, format+"\n", args...)
	}
	if opts.Seed != 0 && opts.Seed != sc.Seed {
		sc.Seed = opts.Seed
		logf("seed overridden: %d", sc.Seed)
	}

	work := opts.WorkDir
	if work == "" {
		var err error
		work, err = os.MkdirTemp("", "cordial-chaos-*")
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}

	bin, err := BuildBinaries(opts.BinDir, work, logf, serveBinaries...)
	if err != nil {
		return nil, err
	}

	logf("building plan: %d banks, seed %d", sc.FleetGen.TotalBanks, sc.Seed)
	plan, err := BuildPlan(sc, hbm.HBM2E)
	if err != nil {
		return nil, err
	}
	logf("plan digest %s: %d events from %d banks", plan.Digest, len(plan.Fleet.Events), plan.Fleet.Banks)

	rep := &Report{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        sc.Seed,
		PlanDigest:  plan.Digest,
		StartedAt:   time.Now(),
		Fleet: FleetReport{
			Nodes:       sc.Fleet.Nodes,
			Banks:       plan.Fleet.Banks,
			FaultyBanks: plan.Fleet.Faulty,
			Events:      len(plan.Fleet.Events),
			PerTemplate: plan.Fleet.PerTemplate,
		},
	}

	st := &runState{
		sc: sc, plan: plan, opts: opts, logf: logf,
		client:    &http.Client{Timeout: 3 * time.Minute},
		probeStop: make(chan struct{}),
	}

	// Reference run: one clean node ingests the whole stream alone; its
	// deduplicated action set is the ground truth the chaos fleet must
	// reproduce exactly.
	var wantActions map[string]bool
	if sc.SLO.ZeroVerdictLoss {
		logf("reference run: single clean node over %d events", len(plan.Fleet.Events))
		wantActions, err = st.referenceRun(bin, work)
		if err != nil {
			return rep, fmt.Errorf("chaos: reference run: %w", err)
		}
		logf("reference emitted %d distinct actions", len(wantActions))
		rep.Verdict.Reference = len(wantActions)
	}

	fleet, err := startFleet(sc, bin, work, logf)
	if err != nil {
		teardown(logf, allDaemons(fleet)...)
		return rep, err
	}
	st.fleet = fleet
	defer teardown(logf, allDaemons(fleet)...)

	st.startProbes()
	runErr := st.driveLoad(rep)
	st.chaosWG.Wait()
	if runErr == nil {
		runErr = st.drain()
	}
	st.stopProbes(rep)

	st.collectStats(rep)
	if sc.SLO.ZeroVerdictLoss && runErr == nil {
		st.compareVerdicts(rep, wantActions)
	}

	st.mu.Lock()
	rep.Chaos = append([]ChaosRecord(nil), st.chaosRecs...)
	rep.Load.PoisonSent = st.poisonSent
	rep.Load.PoisonAccepted = st.poisonAccpt
	st.mu.Unlock()

	rep.FinishedAt = time.Now()
	rep.evaluateSLOs(sc.SLO)
	if runErr != nil {
		rep.Pass = false
	}
	if !rep.Pass {
		rep.FailureDetail = map[string]string{}
		for _, d := range allDaemons(fleet) {
			if tail := d.Output(); tail != "" {
				if len(tail) > 4096 {
					tail = tail[len(tail)-4096:]
				}
				rep.FailureDetail[d.Name] = tail
			}
		}
	}

	if sc.Report.JSON != "" {
		if err := rep.WriteJSON(sc.Report.JSON); err != nil && runErr == nil {
			runErr = err
		}
	}
	if sc.Report.HTML != "" {
		if err := rep.WriteHTML(sc.Report.HTML); err != nil && runErr == nil {
			runErr = err
		}
	}
	if runErr != nil {
		return rep, runErr
	}
	if opts.WorkDir == "" && rep.Pass {
		os.RemoveAll(work)
	}
	return rep, nil
}

// BuildBinaries returns a directory holding the named commands of the
// module: binDir when one is given (each must already be in it), otherwise
// work/bin, built from the module's source.
func BuildBinaries(binDir, work string, logf func(string, ...any), names ...string) (string, error) {
	if binDir != "" {
		for _, name := range names {
			if _, err := os.Stat(filepath.Join(binDir, name)); err != nil {
				return "", fmt.Errorf("chaos: missing binary %s in %s", name, binDir)
			}
		}
		return binDir, nil
	}
	root, err := moduleRoot()
	if err != nil {
		return "", fmt.Errorf("chaos: %w (pass --bin with prebuilt binaries to run outside the repo)", err)
	}
	out := filepath.Join(work, "bin")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	logf("building %s into %s", strings.Join(names, ", "), out)
	args := []string{"build", "-o", out + string(filepath.Separator)}
	for _, name := range names {
		args = append(args, "cordial/cmd/"+name)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("chaos: building %s: %v\n%s", strings.Join(names, ", "), err, msg)
	}
	return out, nil
}

// moduleRoot walks up from the working directory to the cordial go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(data), "module cordial") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("not inside the cordial module")
		}
		dir = parent
	}
}

// serveArgs builds the cordial-serve command line for one node.
func serveArgs(sc *Scenario, walDir string, extra ...string) []string {
	return append([]string{
		"-selftrain",
		"-seed", trainSeed,
		"-train-banks", strconv.Itoa(sc.Fleet.TrainBanks),
		"-trees", strconv.Itoa(sc.Fleet.Trees),
		"-addr", "127.0.0.1:0",
		"-wal-dir", walDir,
		"-fsync", fsyncPolicy,
	}, extra...)
}

// startFleet launches the scenario topology: a control plane, the serve
// nodes at once, and, once every node has registered, the router.
func startFleet(sc *Scenario, bin, work string, logf func(string, ...any)) (*fleetDaemons, error) {
	fleet := &fleetDaemons{}
	fleet.control = &Daemon{
		Name: "control",
		Path: filepath.Join(bin, "cordial-control"),
		Args: []string{"-addr", "127.0.0.1:0",
			"-heartbeat-ttl", heartbeatTTL.String(),
			"-sweep-interval", sweepInterval.String()},
	}
	logf("starting control plane")
	if err := fleet.control.Start(); err != nil {
		return fleet, err
	}
	cpURL := "http://" + fleet.control.Addr()

	for i := 1; i <= sc.Fleet.Nodes; i++ {
		id := "n" + strconv.Itoa(i)
		fleet.nodes = append(fleet.nodes, &Daemon{
			Name: "node-" + strconv.Itoa(i),
			Path: filepath.Join(bin, "cordial-serve"),
			Args: serveArgs(sc, filepath.Join(work, "wal-"+id),
				"-control-plane", cpURL, "-node-id", id,
				"-heartbeat", heartbeat.String()),
		})
	}
	logf("starting %d nodes", len(fleet.nodes))
	errs := make([]error, len(fleet.nodes))
	var wg sync.WaitGroup
	for i, d := range fleet.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = d.Start()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fleet, err
	}

	// All nodes registered before the router comes up.
	if err := PollUntil("all nodes registered", 60*time.Second, func() bool {
		var cp struct {
			Members []struct{ ID string } `json:"members"`
		}
		return GetJSON(nil, "http://"+fleet.control.Addr()+"/statsz", &cp) == http.StatusOK &&
			len(cp.Members) == sc.Fleet.Nodes
	}); err != nil {
		return fleet, err
	}

	fleet.router = &Daemon{
		Name: "router",
		Path: filepath.Join(bin, "cordial-router"),
		Args: []string{"-addr", "127.0.0.1:0", "-control-plane", cpURL,
			"-refresh-interval", routerRefresh.String(),
			"-max-attempts", routerMaxAttempt},
	}
	logf("starting router")
	if err := fleet.router.Start(); err != nil {
		return fleet, err
	}
	if err := PollUntil("router ready", 60*time.Second, func() bool {
		return GetJSON(nil, fleet.router.URL("/readyz"), nil) == http.StatusOK
	}); err != nil {
		return fleet, err
	}
	return fleet, nil
}

func allDaemons(f *fleetDaemons) []*Daemon {
	if f == nil {
		return nil
	}
	var out []*Daemon
	if f.control != nil {
		out = append(out, f.control)
	}
	if f.router != nil {
		out = append(out, f.router)
	}
	return append(out, f.nodes...)
}

func teardown(logf func(string, ...any), daemons ...*Daemon) {
	for _, d := range daemons {
		if d.Alive() {
			if err := d.Terminate(30 * time.Second); err != nil {
				logf("%s shutdown: %v", d.Name, err)
			}
		}
	}
}

// referenceRun ingests the whole plan into one clean standalone node and
// returns its deduplicated action set.
func (st *runState) referenceRun(bin, work string) (map[string]bool, error) {
	ref := &Daemon{
		Name: "reference",
		Path: filepath.Join(bin, "cordial-serve"),
		Args: serveArgs(st.sc, filepath.Join(work, "wal-reference")),
	}
	if err := ref.Start(); err != nil {
		return nil, err
	}
	defer teardown(st.logf, ref)

	events := st.plan.Fleet.Events
	batch := st.sc.Load.Batch
	for i := 0; i < len(events); i += batch {
		end := i + batch
		if end > len(events) {
			end = len(events)
		}
		if _, err := st.postEvents(ref, events[i:end], nil); err != nil {
			return nil, err
		}
	}
	if err := WaitDrained(ref); err != nil {
		return nil, err
	}
	return ActionSet(ref)
}

// ingestResult is the /v1/events response shape shared by serve and
// router (the router additionally reports the consumed prefix on 503).
type ingestResult struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	Dropped  int `json:"dropped"`
}

func (r ingestResult) consumed() int { return r.Accepted + r.Rejected + r.Dropped }

// postEvents delivers one batch to d as wire frames, honouring
// the router's consumed-prefix retry contract on 503: the response body
// reports how many leading events were consumed, and the client resends
// the rest. Returns the cumulative result; counts retries into ld.
func (st *runState) postEvents(d *Daemon, events []mcelog.Event, ld *LoadReport) (ingestResult, error) {
	var total ingestResult
	remaining := events
	for attempt := 0; ; attempt++ {
		var body bytes.Buffer
		if err := mcelog.FromEvents(remaining).WriteWire(st.plan.Profile, &body); err != nil {
			return total, err
		}
		const path = "/v1/events.bin"
		resp, err := st.client.Post(d.URL(path), "application/octet-stream", &body)
		if err != nil {
			return total, fmt.Errorf("chaos: POST %s: %w", path, err)
		}
		var res ingestResult
		decErr := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&res)
		resp.Body.Close()

		switch resp.StatusCode {
		case http.StatusOK:
			total.Accepted += res.Accepted
			total.Rejected += res.Rejected
			total.Dropped += res.Dropped
			return total, nil
		case http.StatusServiceUnavailable:
			if decErr != nil {
				return total, fmt.Errorf("chaos: 503 with unreadable body: %v", decErr)
			}
			total.Accepted += res.Accepted
			total.Rejected += res.Rejected
			total.Dropped += res.Dropped
			if res.consumed() >= len(remaining) {
				return total, nil
			}
			remaining = remaining[res.consumed():]
			if ld != nil {
				st.mu.Lock()
				ld.Retries++
				st.mu.Unlock()
			}
			if attempt > 100 {
				return total, fmt.Errorf("chaos: batch still refused after %d retries", attempt)
			}
			time.Sleep(200 * time.Millisecond)
		default:
			return total, fmt.Errorf("chaos: POST %s = %d", path, resp.StatusCode)
		}
	}
}

// driveLoad runs the phased load loop and arms the chaos timers against
// the same clock.
func (st *runState) driveLoad(rep *Report) error {
	st.loadStart = time.Now()
	st.armChaos()

	events := st.plan.Fleet.Events
	sc := st.sc
	front := st.fleet.router

	// Build the rate timetable: each phase holds its rate for its
	// duration; after the last phase the base rate drains the remainder.
	type window struct {
		until time.Duration
		rate  int
	}
	var windows []window
	var acc time.Duration
	for _, ph := range sc.Load.Phases {
		rate := ph.Rate
		if rate == 0 {
			rate = sc.Load.EventsPerSec
		}
		acc += ph.Duration
		windows = append(windows, window{until: acc, rate: rate})
	}
	rateAt := func(elapsed time.Duration) int {
		for _, w := range windows {
			if elapsed < w.until {
				return w.rate
			}
		}
		return sc.Load.EventsPerSec
	}

	st.logf("driving %d events through %s", len(events), front.Name)
	sent := 0
	var sentBudget float64
	last := time.Now()
	for sent < len(events) {
		now := time.Now()
		sentBudget += now.Sub(last).Seconds() * float64(rateAt(now.Sub(st.loadStart)))
		last = now
		if sentBudget < float64(sc.Load.Batch) && sent+sc.Load.Batch <= len(events) {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		end := sent + sc.Load.Batch
		if end > len(events) {
			end = len(events)
		}
		res, err := st.postEvents(front, events[sent:end], &rep.Load)
		if err != nil {
			return err
		}
		st.mu.Lock()
		rep.Load.Sent += end - sent
		rep.Load.Accepted += res.Accepted
		rep.Load.Rejected += res.Rejected
		rep.Load.Dropped += res.Dropped
		st.mu.Unlock()
		sentBudget -= float64(end - sent)
		sent = end
	}

	// Keep the run window open until the phases and scheduled chaos have
	// both played out, so late injections still happen under probes.
	tail := acc
	for _, a := range st.plan.Chaos {
		tail = max(tail, a.At)
	}
	if wait := time.Until(st.loadStart.Add(tail)); wait > 0 {
		st.logf("load done, holding %v for remaining phases/chaos", wait.Round(time.Millisecond))
		time.Sleep(wait)
	}
	return nil
}
