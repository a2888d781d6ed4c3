package ar

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"sam/internal/join"
	"sam/internal/relation"
)

// modelFile is the on-disk representation of a trained model: enough to
// rebuild the layout and MADE deterministically, plus the learned weights.
// JSON keeps the format debuggable; weights dominate the size anyway.
type modelFile struct {
	Version    int                 `json:"version"`
	Schema     relation.SchemaSpec `json:"schema"`
	Population float64             `json:"population"`
	Config     fileConfig          `json:"config"`
	// Cuts holds each discretizer's bin boundaries, per layout column.
	Cuts [][]int32 `json:"cuts"`
	// Params holds every trainable tensor's data, in Params() order.
	Params [][]float64 `json:"params"`
}

// fileConfig is Config as a model file holds it. Arch is read only so that
// Load can refuse a file of another network; Save writes none.
type fileConfig struct {
	Config
	Arch string `json:",omitempty"`
}

const modelFileVersion = 1

// Save serializes the model (schema metadata, discretizers, configuration,
// weights) so generation can run in a separate process from training.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{
		Version:    modelFileVersion,
		Schema:     m.Layout.Schema.Spec(),
		Population: m.Population,
		Config:     fileConfig{Config: m.Cfg},
	}
	for _, d := range m.Disc {
		mf.Cuts = append(mf.Cuts, d.Cuts())
	}
	for _, p := range m.Net.Params() {
		mf.Params = append(mf.Params, p.Data)
	}
	return json.NewEncoder(w).Encode(&mf)
}

// Load rebuilds a model saved by Save. The file comes from outside the
// program, so every field the rebuild depends on is validated first: a
// malformed file is an error, never a panic.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := json.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("ar: decode model: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("ar: unsupported model version %d", mf.Version)
	}
	shell, err := mf.Schema.EmptySchema()
	if err != nil {
		return nil, err
	}
	layout := join.NewLayout(shell)
	if len(mf.Cuts) != layout.NumCols() {
		return nil, fmt.Errorf("ar: model has %d discretizers for %d columns", len(mf.Cuts), layout.NumCols())
	}
	if p := mf.Population; !(p > 0) || math.IsInf(p, 1) {
		return nil, fmt.Errorf("ar: population %v must be finite and positive", p)
	}
	// Files saved while the config named its network carry an Arch: "made"
	// loads, and the retired "transformer" backbone is refused by name.
	if a := mf.Config.Arch; a != "" && a != "made" {
		return nil, fmt.Errorf("ar: model architecture %q is not supported; MADE is the only one", a)
	}
	cfg := mf.Config.Config
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	disc := make([]*Discretizer, len(mf.Cuts))
	colSizes := make([]int, len(mf.Cuts))
	for i, cuts := range mf.Cuts {
		d, err := FromCuts(cuts)
		if err != nil {
			return nil, fmt.Errorf("ar: column %d: %w", i, err)
		}
		if dom := layout.Cols[i].Domain; int(cuts[len(cuts)-1]) != dom {
			return nil, fmt.Errorf("ar: column %d: last cut %d, want domain %d", i, cuts[len(cuts)-1], dom)
		}
		disc[i], colSizes[i] = d, d.Bins()
	}
	// The net's shape is a pure function of config and discretizer bins.
	// Refuse a config whose weights alone outnumber the values the file
	// holds before building it: the exact per-tensor check below would
	// reject it anyway, after allocating whatever size it claims.
	inDim, have := 0, 0
	for _, n := range colSizes {
		inDim += n
	}
	for _, p := range mf.Params {
		have += len(p)
	}
	if need := minWeights(cfg, inDim); need > float64(have) {
		return nil, fmt.Errorf("ar: config needs at least %.0f weights, file has %d values", need, have)
	}
	// Build the net, then overwrite the weights.
	m := &Model{Layout: layout, Disc: disc, Net: buildMADE(cfg, colSizes),
		Population: mf.Population, Cfg: cfg}
	params := m.Net.Params()
	if len(params) != len(mf.Params) {
		return nil, fmt.Errorf("ar: model has %d parameter tensors, file has %d", len(params), len(mf.Params))
	}
	for i, p := range params {
		if len(p.Data) != len(mf.Params[i]) {
			return nil, fmt.Errorf("ar: parameter %d has %d values, file has %d", i, len(p.Data), len(mf.Params[i]))
		}
		copy(p.Data, mf.Params[i])
		p.MarkDirty() // invalidate masked-weight caches over this tensor
	}
	return m, nil
}

// minWeights is a lower bound on the scalar parameter count of the MADE
// cfg builds over inDim one-hot inputs: its weight matrices alone (input
// and output layers plus the hidden-to-hidden ones). It is computed in
// float64 so no claimed size can overflow, with every product that feeds a
// sum rounded on its own.
func minWeights(cfg Config, inDim int) float64 {
	d, h, l := float64(inDim), float64(cfg.Hidden), float64(cfg.HiddenLayers)
	return float64(2*d*h) + float64((l-1)*h*h)
}
