package ar

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"

	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/relation"
	"sam/internal/workload"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := bigDomainTable(rng, 300, 200)
	l := join.NewLayout(s)
	queries := workload.GenerateSingleRelation(rng, s.Tables[0], 40, workload.DefaultSingleRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(s, queries)}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 8
	cfg.Model.Hidden = 16
	m, err := Train(l, wl, 300, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Population != m.Population {
		t.Fatalf("population %v want %v", m2.Population, m.Population)
	}
	if m2.Layout.NumCols() != m.Layout.NumCols() {
		t.Fatal("layout mismatch")
	}
	for i := range m.Disc {
		a, b := m.Disc[i].Cuts(), m2.Disc[i].Cuts()
		if len(a) != len(b) {
			t.Fatalf("column %d cuts differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("column %d cut %d differs", i, j)
			}
		}
	}
	// Same estimates on the same seed.
	for qi := 0; qi < 5; qi++ {
		e1, err := m.Estimate(SplitSeed(100, qi), &wl.Queries[qi].Query, 4)
		if err != nil {
			t.Fatal(err)
		}
		e2, err := m2.Estimate(SplitSeed(100, qi), &wl.Queries[qi].Query, 4)
		if err != nil {
			t.Fatal(err)
		}
		if e1 != e2 {
			t.Fatalf("query %d: estimates diverge after reload: %v vs %v", qi, e1, e2)
		}
	}
}

// TestLoadFilesSavedWithArch loads two files saved when the config still
// named its network: a MADE with "Arch":"made" (and the unused "DModel"
// and "Heads") loads with the file's weights and saves without those
// keys, and a transformer model is refused by its arch before any weight
// count is checked.
func TestLoadFilesSavedWithArch(t *testing.T) {
	raw, err := os.ReadFile("testdata/made_with_arch.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf modelFile
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("MADE file with \"Arch\":\"made\" rejected: %v", err)
	}
	for i, p := range m.Net.Params() {
		for k, v := range p.Data {
			if v != mf.Params[i][k] {
				t.Fatalf("parameter %d[%d] is %v, file has %v", i, k, v, mf.Params[i][k])
			}
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"Arch"`, `"DModel"`, `"Heads"`} {
		if bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Fatalf("saved model still holds %s: %s", key, buf.Bytes())
		}
	}

	raw, err = os.ReadFile("testdata/transformer.json")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), `"transformer"`) || strings.Contains(err.Error(), "weights") {
		t.Fatalf("transformer model: Load error %v, want one that names the arch", err)
	}
}

func TestLoadRejectsCorruptData(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Load(bytes.NewBufferString(`{"version": 99}`)); err == nil {
		t.Fatal("unknown version accepted")
	}
}

func TestFromCutsValidation(t *testing.T) {
	for _, cuts := range [][]int32{nil, {0}, {1, 2}, {0, 2, 2}, {0, 3, 1}} {
		if _, err := FromCuts(cuts); err == nil {
			t.Fatalf("invalid cuts %v accepted", cuts)
		}
	}
	d, err := FromCuts([]int32{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() != 2 || d.BinOf(3) != 1 {
		t.Fatal("FromCuts reconstruction broken")
	}
}

// malformedModels are edits to a valid model file that still decode
// cleanly but describe a model that cannot be built or would decode
// out-of-domain codes.
var malformedModels = []struct {
	name   string
	mutate func(mf *modelFile)
}{
	{"zero population", func(mf *modelFile) { mf.Population = 0 }},
	{"negative population", func(mf *modelFile) { mf.Population = -3 }},
	{"unknown arch", func(mf *modelFile) { mf.Config.Arch = "foo" }},
	{"zero hidden", func(mf *modelFile) { mf.Config.Hidden = 0 }},
	{"zero hidden layers", func(mf *modelFile) { mf.Config.HiddenLayers = 0 }},
	{"transformer arch", func(mf *modelFile) { mf.Config.Arch = "transformer" }},
	{"zero domain", func(mf *modelFile) { mf.Schema.Tables[0].Columns[0].Domain = 0 }},
	{"vals not ascending", func(mf *modelFile) { mf.Schema.Tables[0].Columns[0].Vals = []float64{2, 1, 0, 3} }},
	{"vals short of domain", func(mf *modelFile) { mf.Schema.Tables[0].Columns[0].Vals = []float64{0, 1} }},
	{"cut past domain", func(mf *modelFile) { mf.Cuts[0] = []int32{0, 1, 2, 3, 9} }},
	{"cut short of domain", func(mf *modelFile) { mf.Cuts[0] = []int32{0, 1, 2} }},
	{"net larger than the file", func(mf *modelFile) { mf.Config.Hidden = 1 << 40 }},
	{"more layers than the file", func(mf *modelFile) { mf.Config.HiddenLayers = 1 << 40 }},
	// Hidden²·HiddenLayers is 2¹²⁰, past any integer type: the size guard
	// must count in float64.
	{"net past int range", func(mf *modelFile) { mf.Config.Hidden, mf.Config.HiddenLayers = 1<<40, 1<<40 }},
}

// mutateModel returns valid with one malformedModels edit applied.
func mutateModel(valid []byte, mutate func(mf *modelFile)) ([]byte, error) {
	var mf modelFile
	if err := json.Unmarshal(valid, &mf); err != nil {
		return nil, err
	}
	mutate(&mf)
	return json.Marshal(&mf)
}

// TestLoadRejectsMalformedModel feeds Load every malformedModels file;
// each must be an error, not a panic and not a silent load.
func TestLoadRejectsMalformedModel(t *testing.T) {
	var buf bytes.Buffer
	if err := batchTestModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for _, tc := range malformedModels {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := mutateModel(valid, tc.mutate)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked: %v", r)
				}
			}()
			if _, err := Load(bytes.NewReader(raw)); err == nil {
				t.Fatal("malformed model accepted")
			}
		})
	}
	if _, err := Load(bytes.NewReader(valid)); err != nil {
		t.Fatalf("unmodified model rejected: %v", err)
	}
}

// FuzzLoad checks that Load either rejects its input or returns a model
// whose saved form loads back and saves to the same bytes; a panic fails
// the target. The corpus starts from a valid model and every
// malformedModels edit of it. The seed model is as small as a model gets,
// so mutating and minimizing a file stays cheap.
func FuzzLoad(f *testing.F) {
	x := relation.NewColumn("x", relation.Categorical, 3)
	y := relation.NewColumn("y", relation.Numeric, 2).WithVals([]float64{0.5, 2})
	s := relation.MustSchema(relation.NewTable("t", x, y))
	cfg := Config{Hidden: 2, HiddenLayers: 1, Seed: 1}
	var buf bytes.Buffer
	if err := NewModel(join.NewLayout(s), nil, 10, cfg).Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, tc := range malformedModels {
		raw, err := mutateModel(valid, tc.mutate)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("saving a loaded model: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("saving a reloaded model: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save, load, save changed the file:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
