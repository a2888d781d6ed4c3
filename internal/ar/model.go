package ar

import (
	"fmt"
	"math"
	"math/rand"

	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/relation"
	"sam/internal/workload"
)

// Model is a trained (or initialized) SAM model: a MADE network over the
// layout's columns after discretization, plus the population size it is
// normalized against (|T| for a single relation, |FOJ| for a join schema).
type Model struct {
	Layout     *join.Layout
	Disc       []*Discretizer
	Net        *nn.MADE
	Population float64
	Cfg        Config
}

// Config controls model construction.
type Config struct {
	Hidden       int  // hidden layer width
	HiddenLayers int  // number of hidden layers
	Intervalize  bool // intervalize numeric content columns from workload constants
	Seed         int64
}

// DefaultConfig returns a CPU-sized MADE configuration.
func DefaultConfig() Config {
	return Config{Hidden: 64, HiddenLayers: 2, Intervalize: true, Seed: 1}
}

// NewModel builds discretizers from the workload's predicate constants and
// initializes the MADE backbone. population is |T| (single relation) or the
// full-outer-join size (multi-relation).
func NewModel(layout *join.Layout, queries []workload.CardQuery, population float64, cfg Config) *Model {
	if population <= 0 {
		panic("ar: population must be positive")
	}
	// Collect distinct constants per content column for intervalization.
	constants := make(map[int][]int32)
	if cfg.Intervalize {
		for qi := range queries {
			q := &queries[qi].Query
			for _, p := range q.Preds {
				idx := layout.ContentIndex(p.Table, p.Column)
				if layout.Cols[idx].Rel != relation.Numeric {
					continue
				}
				if p.Op == workload.IN {
					constants[idx] = append(constants[idx], p.Codes...)
				} else {
					constants[idx] = append(constants[idx], p.Code)
				}
			}
		}
	}
	disc := make([]*Discretizer, layout.NumCols())
	colSizes := make([]int, layout.NumCols())
	for i, c := range layout.Cols {
		if cs, ok := constants[i]; ok && len(cs) > 0 {
			disc[i] = NewInterval(c.Domain, cs)
		} else {
			disc[i] = NewIdentity(c.Domain)
		}
		colSizes[i] = disc[i].Bins()
	}
	net := buildMADE(cfg, colSizes)
	// Heavy-tail prior on fanout columns: initialize the output bias of a
	// fanout bin with weight value v to −2·ln(max(v,1)), i.e.
	// P(fanout=v) ∝ 1/v² before any training (the absent bin and fanout 1
	// start equally likely). Fanout bins are never filtered directly, so
	// without a prior an undertrained model samples huge fanouts uniformly,
	// which the Group-and-Merge step would amplify into explosive join
	// sizes.
	bias := net.OutputBias()
	for i, c := range layout.Cols {
		if c.Kind != join.Fanout {
			continue
		}
		off := net.Offsets()[i]
		for b, v := range c.WeightVals {
			bias.Data[off+b] = -2 * math.Log(v)
		}
	}
	return &Model{Layout: layout, Disc: disc, Net: net, Population: population, Cfg: cfg}
}

// buildMADE constructs the configured MADE; the result is a pure function
// of cfg and the column sizes, which is what makes Save/Load
// reconstruction possible.
func buildMADE(cfg Config, colSizes []int) *nn.MADE {
	if err := checkConfig(cfg); err != nil {
		panic(err)
	}
	return nn.NewMADE(rand.New(rand.NewSource(cfg.Seed)), colSizes, cfg.Hidden, cfg.HiddenLayers)
}

// checkConfig reports why buildMADE cannot build cfg: a nonpositive size.
func checkConfig(cfg Config) error {
	if cfg.Hidden <= 0 || cfg.HiddenLayers <= 0 {
		return fmt.Errorf("ar: hidden width %d and layer count %d must be positive", cfg.Hidden, cfg.HiddenLayers)
	}
	return nil
}

// Spec is a query compiled into the model's bin space: one fractional mask
// per constrained column (nil means unconstrained) plus the fanout columns
// whose values divide the estimate (fanout scaling / inverse probability
// weighting for the query's table set).
type Spec struct {
	Masks      [][]float64
	Downweight []bool // per model column
}

// Compile translates a validated query into a Spec. It returns an error if
// the predicates are unsatisfiable in bin space (zero mass everywhere on
// some column).
func (m *Model) Compile(q *workload.Query) (*Spec, error) {
	l := m.Layout
	spec := &Spec{
		Masks:      make([][]float64, l.NumCols()),
		Downweight: make([]bool, l.NumCols()),
	}
	// Group predicates by model column.
	byCol := make(map[int][]workload.Predicate)
	for _, p := range q.Preds {
		idx := l.ContentIndex(p.Table, p.Column)
		byCol[idx] = append(byCol[idx], p)
	}
	for idx, preds := range byCol {
		mask := make([]float64, m.Disc[idx].Bins())
		if !m.Disc[idx].maskInto(mask, preds, l.Cols[idx].Domain) {
			return nil, fmt.Errorf("ar: query unsatisfiable on %s", l.Cols[idx].Name())
		}
		spec.Masks[idx] = mask
	}
	for _, idx := range l.PresenceConstraints(q.Tables) {
		if spec.Masks[idx] != nil {
			continue // content predicates never target fanout columns
		}
		mask := make([]float64, m.Disc[idx].Bins())
		for b := 1; b < len(mask); b++ {
			mask[b] = 1
		}
		spec.Masks[idx] = mask
	}
	for _, idx := range l.DownweightColumns(q.Tables) {
		spec.Downweight[idx] = true
	}
	return spec, nil
}

// Estimate runs progressive-sampling cardinality estimation for q with the
// given number of Monte-Carlo samples, including fanout scaling for join
// queries. The estimate is a function of (model, q, seed, samples).
func (m *Model) Estimate(seed int64, q *workload.Query, samples int) (float64, error) {
	spec, err := m.Compile(q)
	if err != nil {
		return 0, err
	}
	return m.EstimateSpec(seed, spec, samples), nil
}

// EstimateSpec is Estimate for a precompiled spec. It builds a fresh
// BatchSampler of min(samples, 64) lanes per call; hot loops should hold a
// BatchSampler and call its EstimateSpec instead.
func (m *Model) EstimateSpec(seed int64, spec *Spec, samples int) float64 {
	return m.NewBatchSampler(min(max(samples, 1), 64)).EstimateSpec(seed, spec, samples)
}

// maskedMass is the in-order sum of probs×mask, or of probs when mask is
// nil: the total mass drawFromMass walks.
func maskedMass(probs, mask []float64) float64 {
	var sum float64
	for b, p := range probs {
		if mask != nil {
			p = float64(p * mask[b])
		}
		sum += p
	}
	return sum
}

// drawFromMass draws an index proportional to probs (optionally
// reweighted by mask) by a CDF walk, with the total mass supplied by the
// caller: the sampler fuses its accumulation into the softmax-exp pass
// (tensor.ExpRowMass) or its selectivity update, so nothing re-sums the
// row just to draw from it. mass must equal maskedMass(probs, mask) for the
// draw to be exact. It falls back to the last index if rounding leaves
// residual mass.
func drawFromMass(rng *rand.Rand, probs, mask []float64, mass float64) int {
	if mass <= 0 {
		// Degenerate: uniform over positive-mask bins, else uniform.
		if mask != nil {
			var cands []int
			for b, mv := range mask {
				if mv > 0 {
					cands = append(cands, b)
				}
			}
			if len(cands) > 0 {
				return cands[rng.Intn(len(cands))]
			}
		}
		return rng.Intn(len(probs))
	}
	u := rng.Float64() * mass
	var acc float64
	best := len(probs) - 1
	for b, p := range probs {
		if mask != nil {
			p = float64(p * mask[b])
		}
		acc += p
		if u <= acc {
			return b
		}
	}
	return best
}
