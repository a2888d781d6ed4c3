package tensor_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
	"sam/internal/nn"
	"sam/internal/relation"
	"sam/internal/tensor"
	"sam/internal/workload"
)

// withVector runs f with the vector twins switched on and then off and
// returns both results, restoring the host setting afterwards.
func withVector[T any](t *testing.T, f func() T) (vec, scalar T) {
	t.Helper()
	prev := tensor.SetVectorKernels(true)
	defer tensor.SetVectorKernels(prev)
	vec = f()
	tensor.SetVectorKernels(false)
	scalar = f()
	return vec, scalar
}

// mixedValues returns n finite values spanning many magnitudes, with
// exact and negative zeros sprinkled in.
func mixedValues(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = math.Copysign(0, -1)
		default:
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
	}
	return out
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestAxpyVectorMatchesGo checks the AVX2 axpy twin against the Go loop
// bit for bit over every length up to 67 (the 8- and 4-wide steps and all
// scalar tails) and sub-slices at every alignment mod 4.
func TestAxpyVectorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const pad = 3
	for n := 0; n <= 67; n++ {
		for off := 0; off <= pad; off++ {
			dst0 := mixedValues(rng, n+pad)
			b := mixedValues(rng, n+pad)[off : off+n]
			v := mixedValues(rng, 1)[0]
			vec, scalar := withVector(t, func() []float64 {
				dst := append([]float64(nil), dst0...)
				tensor.Axpy1(dst[pad-off:], b, v)
				return dst
			})
			if i := sameBits(vec, scalar); i >= 0 {
				t.Fatalf("n=%d off=%d: element %d is %x vectorized, %x in Go",
					n, off, i, math.Float64bits(vec[i]), math.Float64bits(scalar[i]))
			}
		}
	}
}

// TestExpRowMassVectorMatchesGo checks ExpRowMass with and without the
// AVX2 twin bit for bit — the stored exponentials and the mass — on rows
// of every length up to 67, aliased and not, with no out-of-range entry
// and with one planted at every position, so the hand-back to the Go loop
// and its rescue are exercised from every group offset.
func TestExpRowMassVectorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	planted := []float64{701, -750, math.Inf(1), math.Inf(-1), math.NaN()}
	for n := 0; n <= 67; n++ {
		// Trained-scale logits, whose masses are close enough in size that
		// any change in summation order shows, and logits spanning the
		// whole single-pass range.
		narrow, wide := make([]float64, n), make([]float64, n)
		for i := range narrow {
			narrow[i] = rng.NormFloat64() * 2
			wide[i] = (rng.Float64()*2 - 1) * 700
		}
		for _, base := range [][]float64{narrow, wide} {
			checkExpRowMass(t, rng, base, planted)
		}
	}
	// A row whose entries are in range but whose sum overflows takes the
	// rescue after the loop on both paths.
	long := make([]float64, 1<<15)
	for i := range long {
		long[i] = 700
	}
	vec, scalar := withVector(t, func() float64 { return tensor.ExpRowMass(make([]float64, len(long)), long) })
	if math.Float64bits(vec) != math.Float64bits(scalar) {
		t.Fatalf("overflowing row: mass %v vectorized, %v in Go", vec, scalar)
	}
}

// checkExpRowMass compares both paths on base as it is and with an entry
// of planted at each position in turn, aliased and not.
func checkExpRowMass(t *testing.T, rng *rand.Rand, base, planted []float64) {
	t.Helper()
	n := len(base)
	for pos := -1; pos < n; pos++ {
		src := append([]float64(nil), base...)
		if pos >= 0 {
			src[pos] = planted[rng.Intn(len(planted))]
		}
		for _, aliased := range []bool{false, true} {
			vec, scalar := withVector(t, func() []float64 {
				row := append([]float64(nil), src...)
				dst := row
				if !aliased {
					dst = make([]float64, n)
				}
				mass := tensor.ExpRowMass(dst, row)
				return append(dst, mass)
			})
			if i := sameBits(vec, scalar); i >= 0 {
				t.Fatalf("n=%d planted at %d aliased=%v: element %d of dst+mass is %x vectorized, %x in Go",
					n, pos, aliased, i, math.Float64bits(vec[i]), math.Float64bits(scalar[i]))
			}
		}
	}
}

// TestLaneTileVectorMatchesGo checks MatMulPrefixInto's AVX2 tiles against
// its Go loop, and both against a plain per-element sum over each unit's
// own prefix, bit for bit: lanes 1–17 (full 8-lane tiles and every
// leftover count), unit ranges 1–37 wide (16- and 4-unit tiles and every
// masked tail), longest prefixes from 0 to the weight's full height with
// random nondecreasing prefixes below, and ReLU-like activations against
// mixedValues weights whose masked entries are ±0. A taller weight takes
// prefixes past the Go loop's 64-activation chunks.
func TestLaneTileVectorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for lanes := 1; lanes <= 17; lanes++ {
		for units := 1; units <= 37; units++ {
			for kMax := 0; kMax <= 11; kMax++ {
				checkLaneTile(t, rng, lanes, units, 11, kMax)
			}
		}
	}
	for _, lanes := range []int{1, 8, 9} {
		for _, kMax := range []int{63, 64, 65, 128, 150} {
			checkLaneTile(t, rng, lanes, 37, 150, kMax)
		}
	}
}

// checkLaneTile runs one TestLaneTileVectorMatchesGo case over units
// [2, 2+units) of a weight height rows tall, at column offset 3, whose
// longest prefix is kMax. A 37-unit range ends on the weight's last
// column, where a tail that read past its units would leave the matrix;
// shorter ones leave a column or two after it. Columns outside the range
// must keep their old values.
func checkLaneTile(t *testing.T, rng *rand.Rand, lanes, units, height, kMax int) {
	t.Helper()
	const lo, off = 2, 3
	head := lo + units
	prefix := make([]int, head)
	for j := lo; j < head; j++ {
		prefix[j] = rng.Intn(kMax + 1)
	}
	sort.Ints(prefix[lo:])
	prefix[head-1] = kMax
	wCols := off + head + rng.Intn(3)
	if units == 37 {
		wCols = off + head
	}
	w := tensor.FromSlice(height, wCols, mixedValues(rng, height*wCols))
	for j := lo; j < head; j++ {
		for k := prefix[j]; k < height; k++ {
			w.Data[k*wCols+off+j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		}
	}
	aCols := height + rng.Intn(2)
	a := tensor.FromSlice(lanes, aCols, mixedValues(rng, lanes*aCols))
	for i, v := range a.Data {
		a.Data[i] = math.Abs(v)
	}
	dst0 := mixedValues(rng, lanes*(head+1))
	want := append([]float64(nil), dst0...)
	for r := 0; r < lanes; r++ {
		for j := lo; j < head; j++ {
			var s float64
			for k := 0; k < prefix[j]; k++ {
				s += float64(a.At(r, k) * w.At(k, off+j))
			}
			want[r*(head+1)+j] = s
		}
	}
	vec, scalar := withVector(t, func() []float64 {
		dst := tensor.FromSlice(lanes, head+1, append([]float64(nil), dst0...))
		tensor.MatMulPrefixInto(dst, a, w, off, prefix, lo, head)
		return dst.Data
	})
	for name, got := range map[string][]float64{"vectorized": vec, "Go": scalar} {
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("lanes=%d units=%d height=%d kMax=%d: element %d is %x %s, %x summed per unit",
				lanes, units, height, kMax, i, math.Float64bits(got[i]), name, math.Float64bits(want[i]))
		}
	}
}

// TestMADELogitsIndependentOfVectorKernels runs full ancestral sweeps
// through MADE's batched inference at batch 1, 7 and 64 on both MADE
// depths, with the vector kernels on and off: every column's logits must
// carry the same bits, and so must the logits a cold engine computes for
// the same inputs from scratch, so neither the host's CPU nor the prefix
// cache's state can move a logit.
func TestMADELogitsIndependentOfVectorKernels(t *testing.T) {
	colSizes := []int{5, 17, 3, 40, 1, 9, 23, 2}
	for _, depth := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(10 + depth)))
		m := nn.NewMADE(rng, colSizes, 37, depth)
		for _, p := range m.Params() {
			p.Randn(rng, 0.5)
			p.MarkDirty()
		}
		for _, lanes := range []int{1, 7, 64} {
			rows := make([][]int, lanes)
			for l := range rows {
				for c, size := range colSizes {
					rows[l] = append(rows[l], m.Offsets()[c]+rng.Intn(size))
				}
			}
			sweep := func(cold bool) [][]float64 {
				bi := m.NewBatchInference(lanes)
				var out [][]float64
				for c := range colSizes {
					if cold {
						bi.Reset()
						for l, row := range rows {
							for _, flat := range row[:c] {
								bi.SetInput(l, flat)
							}
						}
					}
					out = append(out, append([]float64(nil), bi.ForwardCol(c).Data...))
					for l, row := range rows {
						bi.SetInput(l, row[c])
					}
				}
				return out
			}
			warmVec, warmGo := withVector(t, func() [][]float64 { return sweep(false) })
			coldVec, coldGo := withVector(t, func() [][]float64 { return sweep(true) })
			for c := range colSizes {
				for name, got := range map[string][]float64{"warm Go": warmGo[c], "cold vectorized": coldVec[c], "cold Go": coldGo[c]} {
					if i := sameBits(got, warmVec[c]); i >= 0 {
						t.Fatalf("depth %d, %d lanes, column %d: logit %d is %x %s, %x warm vectorized",
							depth, lanes, c, i, math.Float64bits(got[i]), name, math.Float64bits(warmVec[c][i]))
					}
				}
			}
		}
	}
}

// TestGenerateBytesIndependentOfVectorKernels trains a small MADE on an
// IMDB-like join and generates a database from it with the vector twins on
// and off: the saved model and every generated table must be identical
// byte for byte, so a host's CPU features cannot change what SAM produces.
func TestGenerateBytesIndependentOfVectorKernels(t *testing.T) {
	db := datagen.IMDB(5, 400)
	queries := workload.GenerateMultiRelation(rand.New(rand.NewSource(6)), db, 48,
		workload.DefaultMultiRelationOptions())
	wl := &workload.Workload{Queries: engine.Label(db, queries)}
	sizes := map[string]int{}
	for _, tab := range db.Tables {
		sizes[tab.Name] = tab.NumRows()
	}
	cfg := ar.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 16
	cfg.Workers = 1
	cfg.Seed = 7
	cfg.Model.Hidden = 32
	run := func() []byte {
		m, err := ar.Train(join.NewLayout(db), wl, float64(engine.FOJSize(db)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := m.Save(&out); err != nil {
			t.Fatal(err)
		}
		g, err := core.FromModel(m, sizes)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultGenOptions(8)
		opts.Samples = 3000
		opts.Workers = 2
		opts.Batch = 32
		gen, err := g.Generate(core.ModelSampler(m, opts.Batch), opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range gen.Tables {
			out.WriteString(tab.Name + "\n")
			if err := tab.WriteCSV(&out); err != nil {
				t.Fatal(err)
			}
		}
		return out.Bytes()
	}
	vec, scalar := withVector(t, run)
	if !bytes.Equal(vec, scalar) {
		t.Fatalf("model and tables differ with the vector kernels on (%d bytes) and off (%d bytes)", len(vec), len(scalar))
	}
}

// BenchmarkSampleVectorKernels times ancestral sampling per tuple with the
// vector kernels on and off, at batch 1 and 64, on tensorbench's
// sample_per_tuple / sample_batched net (an untrained single-table MADE
// over colSizes {64,32,16,128,8,4,50}, hidden 64×2): the off rows are what
// a host without AVX2 pays.
func BenchmarkSampleVectorKernels(b *testing.B) {
	colSizes := []int{64, 32, 16, 128, 8, 4, 50}
	cols := make([]*relation.Column, len(colSizes))
	for i, s := range colSizes {
		cols[i] = relation.NewColumn(fmt.Sprintf("c%d", i), relation.Categorical, s)
	}
	schema, err := relation.NewSchema(relation.NewTable("t", cols...))
	if err != nil {
		b.Fatal(err)
	}
	m := ar.NewModel(join.NewLayout(schema), nil, 1000,
		ar.Config{Hidden: 64, HiddenLayers: 2, Seed: 3, Arch: "made"})
	for _, on := range []bool{true, false} {
		for _, lanes := range []int{1, 64} {
			b.Run(fmt.Sprintf("vector=%v/lanes=%d", on, lanes), func(b *testing.B) {
				defer tensor.SetVectorKernels(tensor.SetVectorKernels(on))
				s := m.NewBatchSampler(lanes)
				rngs := make([]*rand.Rand, lanes)
				for l := range rngs {
					rngs[l] = ar.NewSampleRand(0)
				}
				dst := make([]int32, lanes*len(colSizes))
				b.ReportAllocs()
				b.ResetTimer()
				// One iteration is one tuple; each sweep draws a batch,
				// every lane on its tuple's stream as in generation.
				for drawn := 0; drawn < b.N; drawn += lanes {
					for l, r := range rngs {
						r.Seed(ar.SplitSeed(7, drawn+l))
					}
					s.SampleFOJBatch(rngs, dst)
				}
			})
		}
	}
}
