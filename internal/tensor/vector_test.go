package tensor_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"sam/internal/ar"
	"sam/internal/core"
	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/join"
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

// TestAxpyVectorMatchesGo checks the AVX2 axpy twins against the Go loops
// bit for bit over every length up to 67 (the 8- and 4-wide steps and all
// scalar tails) and sub-slices at every alignment mod 4.
func TestAxpyVectorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const pad = 3
	for n := 0; n <= 67; n++ {
		for off := 0; off <= pad; off++ {
			dst0 := mixedValues(rng, n+pad)
			var b [4][]float64
			for i := range b {
				b[i] = mixedValues(rng, n+pad)[off : off+n]
			}
			v := mixedValues(rng, 4)
			run := func(four bool) func() []float64 {
				return func() []float64 {
					dst := append([]float64(nil), dst0...)
					if four {
						tensor.Axpy4(dst[pad-off:], b[0], b[1], b[2], b[3], v[0], v[1], v[2], v[3])
					} else {
						tensor.Axpy1(dst[pad-off:], b[0], v[0])
					}
					return dst
				}
			}
			for _, four := range []bool{true, false} {
				vec, scalar := withVector(t, run(four))
				if i := sameBits(vec, scalar); i >= 0 {
					t.Fatalf("axpy4=%v n=%d off=%d: element %d is %x vectorized, %x in Go",
						four, n, off, i, math.Float64bits(vec[i]), math.Float64bits(scalar[i]))
				}
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
