package mltree

import (
	"encoding/json"
	"fmt"
	"io"
)

// Model kinds used in the serialised envelope.
const (
	kindTree     = "tree"
	kindForest   = "forest"
	kindGBDT     = "gbdt"
	kindHistGBDT = "histgbdt"
)

// envelope wraps any serialised model with its kind for safe round-tripping.
type envelope struct {
	Kind    string          `json:"kind"`
	Classes []int           `json:"classes"`
	Payload json.RawMessage `json:"payload"`
}

type treePayload struct {
	Config TreeConfig `json:"config"`
	Root   *treeNode  `json:"root"`
}

type forestPayload struct {
	Config ForestConfig  `json:"config"`
	Trees  []treePayload `json:"trees"`
	// TreeClasses holds each member's own class list (bootstrap bags can
	// miss classes).
	TreeClasses [][]int `json:"treeClasses"`
}

// boostedPayload is a GBDT or a HistGBDT: Config holds (a pointer to) the
// kind's own configuration.
type boostedPayload struct {
	Config   any        `json:"config"`
	Boosters []*booster `json:"boosters"`
}

// Save serialises a fitted model to w as JSON. Supported types: *Tree,
// *Forest, *GBDT, *HistGBDT.
func Save(w io.Writer, model Classifier) error {
	if a, ok := arenaOf(model); ok && a == nil {
		return fmt.Errorf("mltree: cannot serialise an unfitted %T", model)
	}
	var env envelope
	env.Classes = model.Classes()
	var payload any
	switch m := model.(type) {
	case *Tree:
		env.Kind = kindTree
		payload = treePayload{Config: m.Config, Root: m.arena.pointerTree(0, classColumns(m.classes, classIndex(m.classes)))}
	case *Forest:
		env.Kind = kindForest
		fp, idx := forestPayload{Config: m.Config}, classIndex(m.classes)
		for t, mb := range m.members {
			root := m.arena.pointerTree(m.arena.roots[t], classColumns(mb.classes, idx))
			fp.Trees = append(fp.Trees, treePayload{Config: mb.config, Root: root})
			fp.TreeClasses = append(fp.TreeClasses, mb.classes)
		}
		payload = fp
	case *GBDT:
		env.Kind = kindGBDT
		payload = boostedPayload{Config: m.Config, Boosters: m.boosters()}
	case *HistGBDT:
		env.Kind = kindHistGBDT
		payload = boostedPayload{Config: m.Config, Boosters: m.boosters()}
	default:
		return fmt.Errorf("mltree: cannot serialise model type %T", model)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("mltree: marshaling payload: %w", err)
	}
	env.Payload = raw
	enc := json.NewEncoder(w)
	return enc.Encode(env)
}

// Decoder reads a stream of models written back-to-back by Save.
type Decoder struct {
	dec *json.Decoder
}

// NewDecoderFromJSON wraps an existing json.Decoder, so callers that decoded
// their own header from the same stream can continue reading models without
// losing the decoder's buffered input.
func NewDecoderFromJSON(dec *json.Decoder) *Decoder {
	return &Decoder{dec: dec}
}

// Decode reads the next model from the stream.
func (d *Decoder) Decode() (Classifier, error) {
	var env envelope
	if err := d.dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("mltree: decoding envelope: %w", err)
	}
	if len(env.Classes) == 0 {
		return nil, fmt.Errorf("mltree: model has no classes")
	}
	var model Classifier
	var err error
	switch env.Kind {
	case kindTree:
		var p treePayload
		if err = json.Unmarshal(env.Payload, &p); err == nil {
			t := &Tree{Config: p.Config, classes: env.Classes}
			t.arena, _, err = decodeTrees([]treePayload{p}, [][]int{env.Classes}, env.Classes)
			model = t
		}
	case kindForest:
		var p forestPayload
		if err = json.Unmarshal(env.Payload, &p); err == nil {
			f := &Forest{Config: p.Config, classes: env.Classes}
			f.arena, f.members, err = decodeTrees(p.Trees, p.TreeClasses, env.Classes)
			model = f
		}
	case kindGBDT:
		m := &GBDT{}
		model, err = m, decodeBoosted(env, &m.Config, &m.boosted)
	case kindHistGBDT:
		m := &HistGBDT{}
		model, err = m, decodeBoosted(env, &m.Config, &m.boosted)
	default:
		err = fmt.Errorf("unknown model kind %q", env.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("mltree: decoding %s: %w", env.Kind, err)
	}
	return model, nil
}

// classColumns returns, for each of a member's classes, its column in the
// model's class list (idx, from classIndex), or nil if one is not there.
func classColumns(member []int, idx map[int]int) []int {
	cols := make([]int, len(member)) // non-nil: nil means a regression leaf
	for j, c := range member {
		col, ok := idx[c]
		if !ok {
			return nil
		}
		cols[j] = col
	}
	return cols
}

// decodeBoosted decodes a boosted model's payload into its configuration and
// compiles its chains.
func decodeBoosted(env envelope, config any, m *boosted) error {
	p := boostedPayload{Config: config}
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return err
	}
	if len(env.Classes) < 2 || len(p.Boosters) != armsFor(len(env.Classes)) {
		return fmt.Errorf("%d boosting chains for %d classes", len(p.Boosters), len(env.Classes))
	}
	m.classes = env.Classes
	return m.compile(p.Boosters)
}

// decodeTrees validates decoded classification trees and compiles them, leaf
// rows aligned to classes, into one arena.
func decodeTrees(trees []treePayload, treeClasses [][]int, classes []int) (*arena, []member, error) {
	if len(trees) != len(treeClasses) {
		return nil, nil, fmt.Errorf("%d trees but %d class lists", len(trees), len(treeClasses))
	}
	members, grown, idx := make([]member, len(trees)), make([]grownTree, len(trees)), classIndex(classes)
	b := newBuilder(len(classes))
	for i, tp := range trees {
		cols := classColumns(treeClasses[i], idx)
		if cols == nil {
			return nil, nil, fmt.Errorf("member %d: a class is not one of the model's", i)
		}
		var err error
		if grown[i], err = b.flatten(tp.Root, cols); err != nil {
			return nil, nil, fmt.Errorf("member %d: %w", i, err)
		}
		members[i] = member{tp.Config, treeClasses[i]}
	}
	a, err := compileArena(grown, len(classes), nil)
	return a, members, err
}
