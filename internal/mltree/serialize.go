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
	OOB         float64 `json:"oob"`
}

type gbdtPayload struct {
	Config   GBDTConfig `json:"config"`
	Boosters []*booster `json:"boosters"`
}

type histPayload struct {
	Config   HistGBDTConfig `json:"config"`
	Boosters []*booster     `json:"boosters"`
}

// Save serialises a fitted model to w as JSON. Supported types: *Tree,
// *Forest, *GBDT, *HistGBDT.
func Save(w io.Writer, model Classifier) error {
	var env envelope
	env.Classes = model.Classes()
	var payload any
	switch m := model.(type) {
	case *Tree:
		env.Kind = kindTree
		payload = treePayload{Config: m.Config, Root: m.root}
	case *Forest:
		env.Kind = kindForest
		fp := forestPayload{Config: m.Config, OOB: m.oobScore}
		for _, t := range m.trees {
			fp.Trees = append(fp.Trees, treePayload{Config: t.Config, Root: t.root})
			fp.TreeClasses = append(fp.TreeClasses, t.classes)
		}
		payload = fp
	case *GBDT:
		env.Kind = kindGBDT
		payload = gbdtPayload{Config: m.Config, Boosters: m.boosters}
	case *HistGBDT:
		env.Kind = kindHistGBDT
		payload = histPayload{Config: m.Config, Boosters: m.boosters}
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

// Load deserialises a model previously written by Save. To read several
// concatenated models from one stream, use a Decoder — Load consumes an
// unspecified amount of buffered input beyond the first model.
func Load(r io.Reader) (Classifier, error) {
	return NewDecoder(r).Decode()
}

// Decoder reads a stream of models written back-to-back by Save.
type Decoder struct {
	dec *json.Decoder
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{dec: json.NewDecoder(r)}
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
	switch env.Kind {
	case kindTree:
		var p treePayload
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("mltree: decoding tree: %w", err)
		}
		t := &Tree{Config: p.Config, root: p.Root, classes: env.Classes}
		if err := checkMember(t, classIndex(env.Classes)); err != nil {
			return nil, fmt.Errorf("mltree: tree: %w", err)
		}
		t.flat = compileClassifier([]*Tree{t}, env.Classes)
		return t, nil
	case kindForest:
		var p forestPayload
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("mltree: decoding forest: %w", err)
		}
		if len(p.Trees) != len(p.TreeClasses) {
			return nil, fmt.Errorf("mltree: forest has %d trees but %d class lists", len(p.Trees), len(p.TreeClasses))
		}
		f := &Forest{Config: p.Config, classes: env.Classes, oobScore: p.OOB}
		idx := classIndex(env.Classes)
		for i, tp := range p.Trees {
			t := &Tree{Config: tp.Config, root: tp.Root, classes: p.TreeClasses[i]}
			if err := checkMember(t, idx); err != nil {
				return nil, fmt.Errorf("mltree: forest member %d: %w", i, err)
			}
			f.trees = append(f.trees, t)
		}
		f.arena = compileClassifier(f.trees, f.classes)
		return f, nil
	case kindGBDT:
		var p gbdtPayload
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("mltree: decoding gbdt: %w", err)
		}
		for _, b := range p.Boosters {
			b.compile()
		}
		return &GBDT{Config: p.Config, boosted: boosted{classes: env.Classes, boosters: p.Boosters}}, nil
	case kindHistGBDT:
		var p histPayload
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("mltree: decoding histgbdt: %w", err)
		}
		for _, b := range p.Boosters {
			b.compile()
		}
		return &HistGBDT{Config: p.Config, boosted: boosted{classes: env.Classes, boosters: p.Boosters}}, nil
	default:
		return nil, fmt.Errorf("mltree: unknown model kind %q", env.Kind)
	}
}

// checkMember validates what compileClassifier relies on in a decoded
// classification tree: classes drawn from the model's class list (idx), no
// missing node, and one probability per class of the tree at every leaf.
func checkMember(t *Tree, idx map[int]int) error {
	for _, c := range t.classes {
		if _, ok := idx[c]; !ok {
			return fmt.Errorf("class %d is not one of the model's", c)
		}
	}
	if !wellFormed(t.root, len(t.classes)) {
		return fmt.Errorf("a node is missing, or a leaf does not carry %d probabilities", len(t.classes))
	}
	return nil
}

func wellFormed(n *treeNode, k int) bool {
	if n == nil || n.isLeaf() {
		return n != nil && len(n.Probs) == k
	}
	return wellFormed(n.Left, k) && wellFormed(n.Right, k)
}
