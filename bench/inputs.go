package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"time"

	"cordial/internal/core"
	"cordial/internal/ecc"
	"cordial/internal/faultsim"
	"cordial/internal/hbm"
	"cordial/internal/mcelog"
	"cordial/internal/trace"
	"cordial/internal/xrand"
)

// Input sizes at -scale 1, calibrated once on the 2-vCPU reference box so a
// closed-loop pass takes about a second and a set-up about 1.5 s; the
// driver's budget (92 runs in 57 minutes) leaves no room for the 2-4 s
// passes ISSUE 12 asked for.
const (
	fleetUERBanks    = 200
	fleetBenignBanks = 64000
	hotBanks         = 1024
	hotEventsPerBank = 120
	trainEvalBanks   = 300
	servingTrainUER  = 120 // training banks of the serving model (default pipeline config)

	// servingModelSeed fixes the serving model: it is a fixture of the
	// system under test like the code is, and the run's seed draws only the
	// traffic. Fitted per seed, the forests differ enough in cost that the
	// same traffic shape moves 10-20 % between seeds.
	servingModelSeed = 1

	passFrameEvents  = 1024 // closed-loop frames
	pacedFrameEvents = 256  // open-loop frames
)

var geo = hbm.DefaultGeometry

// servingInput is everything a serving workload is set up with: the fitted
// serving model and the seed's events as pre-encoded wire streams.
type servingInput struct {
	pipe        *core.Pipeline
	strategy    core.Strategy
	trainFaults []*faultsim.BankFault
	events      int
	wire        []byte // CBF2 stream of passFrameEvents-event frames
	pacedWire   []byte // the same events in pacedFrameEvents-event frames
}

func scaled(n int, scale float64) int {
	if v := int(float64(n) * scale); v > 1 {
		return v
	}
	return 2
}

// buildServing is the timed set-up of a serving workload: generate the
// events from the seed, fit the serving model, encode the frames.
func buildServing(gen func(*xrand.RNG, float64) ([]mcelog.Event, error), seed uint64, scale float64) (*servingInput, error) {
	events, err := gen(xrand.New(seed), scale)
	if err != nil {
		return nil, err
	}
	spec := trace.DefaultSpec(geo)
	spec.UERBanks, spec.BenignBanks, spec.Seed = max(30, scaled(servingTrainUER, scale)), 0, servingModelSeed
	trainFleet, err := trace.Generate(spec)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(core.RandomForest)
	cfg.Seed = servingModelSeed
	pipe, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := pipe.Fit(trainFleet.Faults); err != nil {
		return nil, err
	}
	in := &servingInput{
		pipe:        pipe,
		strategy:    &core.CordialStrategy{Pipeline: pipe, Geometry: geo},
		trainFaults: trainFleet.Faults,
		events:      len(events),
	}
	if in.wire, err = encodeWire(events, passFrameEvents); err != nil {
		return nil, err
	}
	if in.pacedWire, err = encodeWire(events, pacedFrameEvents); err != nil {
		return nil, err
	}
	return in, nil
}

// catalogueSeed fixes the fault histories (which rows of a failing bank
// err, and when, relative to each other) that the fleet and train_eval
// workloads draw on. A failing bank's cost is heavy-tailed (a whole-column
// fault has a hundred times the UER rows of a single-row one), so fleets of
// a few hundred banks drawn afresh per seed differ by 5-10 % in allocations
// and inference calls per event, which would force that much slack into
// every bound. The run's seed still draws where in the fleet each history
// lands, when it starts, all benign traffic, and the train/test split.
const catalogueSeed = 1

// faultCatalogue generates n failing banks with the default pattern weights.
func faultCatalogue(n int) ([]*faultsim.BankFault, faultsim.Config, error) {
	spec := trace.DefaultSpec(geo)
	spec.UERBanks, spec.BenignBanks, spec.Seed = n, 0, catalogueSeed
	spec.CompanionProbs = nil
	fleet, err := trace.Generate(spec)
	if err != nil {
		return nil, faultsim.Config{}, err
	}
	return fleet.Faults, spec.Fault, nil
}

// fleetEvents is the production shape: a few hundred failing banks from the
// catalogue, each moved to a bank and a start time drawn from the seed,
// under a much larger population of benign banks from the same calibrated
// faultsim generator trace.Generate uses; about 7 events per bank, sorted
// by time. The merge uses a generic sort: Log.Sort's reflective stable sort
// alone takes 2.3 s on 700 k events, more than the whole set-up budget.
func fleetEvents(rng *xrand.RNG, scale float64) ([]mcelog.Event, error) {
	faults, cfg, err := faultCatalogue(scaled(fleetUERBanks, scale))
	if err != nil {
		return nil, err
	}
	var events []mcelog.Event
	for _, bf := range faults {
		bank := hbm.RandomBank(geo, rng)
		shift := time.Duration(rng.Intn(48*3600)) * time.Second
		for _, e := range bf.Events {
			e.Addr = hbm.CellInBank(bank, e.Addr.Row, e.Addr.Column)
			e.Time = e.Time.Add(shift)
			events = append(events, e)
		}
	}
	gen, err := faultsim.NewGenerator(cfg, rng.Split())
	if err != nil {
		return nil, err
	}
	for i, n := 0, scaled(fleetBenignBanks, scale); i < n; i++ {
		events = append(events, gen.GenerateBenign(hbm.RandomBank(geo, rng))...)
	}
	sortEvents(events)
	return events, nil
}

// hotBankEvents is the inference-bound shape of the repository's
// longSessionEvents benchmark helper, drawn from the seed: every bank has a
// slowly drifting CE cluster and a UER at a previously unseen row on every
// 10th event, so its first three UER rows are adjacent (an aggregation
// failure) and block prediction fires on a tenth of all events. Many banks
// rather than many events per bank, so that hashing them over two shards
// splits the work evenly for every seed.
func hotBankEvents(rng *xrand.RNG, scale float64) ([]mcelog.Event, error) {
	banks := scaled(hotBanks, scale)
	start := time.Date(2025, 3, 1, 0, 0, 0, 0, time.UTC)
	events := make([]mcelog.Event, 0, banks*hotEventsPerBank)
	for b := 0; b < banks; b++ {
		bank := hbm.RandomBank(geo, rng)
		baseRow := 64 + rng.Intn(geo.RowsPerBank-256)
		offset := time.Duration(rng.Intn(300_000)) * time.Millisecond // one UER period, so UERs arrive evenly
		for i := 0; i < hotEventsPerBank; i++ {
			row, class := baseRow+i/10, ecc.ClassCE
			if i%10 == 9 {
				class = ecc.ClassUER
			} else {
				row += rng.Intn(4)
			}
			events = append(events, mcelog.Event{
				Time:  start.Add(offset + time.Duration(i)*30*time.Second),
				Addr:  hbm.CellInBank(bank, row, rng.Intn(geo.ColsPerBank)),
				Class: class,
			})
		}
	}
	sortEvents(events)
	return events, nil
}

func sortEvents(events []mcelog.Event) {
	slices.SortFunc(events, func(a, b mcelog.Event) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		}
		return 0
	})
}

// encodeWire frames events as the body of POST /v1/events.bin.
func encodeWire(events []mcelog.Event, perFrame int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(events)*mcelog.WireRecordSize + len(events)/perFrame*8 + 16)
	enc := mcelog.NewFrameEncoder(&buf, perFrame)
	for _, e := range events {
		if err := enc.Add(e); err != nil {
			return nil, fmt.Errorf("encoding wire frames: %w", err)
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, fmt.Errorf("encoding wire frames: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeWire returns every event of a wire stream, exactly as the engine
// will see them.
func decodeWire(wire []byte, n int) ([]mcelog.Event, error) {
	events := make([]mcelog.Event, 0, n)
	dec := mcelog.NewFrameDecoder(bytes.NewReader(wire))
	for {
		fr, err := dec.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, fmt.Errorf("decoding wire frames: %w", err)
		}
		for i, m := 0, fr.Len(); i < m; i++ {
			events = append(events, fr.Event(i))
		}
	}
}
