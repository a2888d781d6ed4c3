package core

import (
	"cmp"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sam/internal/datagen"
	"sam/internal/join"
)

// faultStore wraps a store: every read of a stream whose name ends in
// suffix passes its bytes through fault, which may corrupt them in place
// or fail the read.
type faultStore struct {
	store
	suffix string
	fault  func(p []byte, off int64) error
}

func (s faultStore) open(name string) (streamReader, error) {
	r, err := s.store.open(name)
	if err != nil || !strings.HasSuffix(name, s.suffix) {
		return r, err
	}
	return faultReader{r, s.fault}, nil
}

type faultReader struct {
	streamReader
	fault func(p []byte, off int64) error
}

func (r faultReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := r.streamReader.ReadAt(p, off)
	if ferr := r.fault(p[:n], off); ferr != nil {
		return 0, ferr
	}
	return n, err
}

// failSink accepts left rows, then fails every write.
type failSink struct{ left int }

var errSinkFull = errors.New("sink full")

func (s *failSink) WriteRow(int64, []int32, int64) error {
	if s.left == 0 {
		return errSinkFull
	}
	s.left--
	return nil
}

func (s *failSink) close() error { return nil }

// TestMergeErrorsStopWorkers fails the merge of the IMDB star at Workers
// 2 in each of its concurrent stages: a shard read that fails in a scan
// worker's chunk, a span bucket whose records lie outside its range, and
// a sink that fails in pass B while the next partition is being grouped.
// Each merge must return its error and leave no goroutine running.
func TestMergeErrorsStopWorkers(t *testing.T) {
	orig := datagen.IMDB(7, 120)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	errDisk := errors.New("disk gone")
	// Each fault hits one read only, so one worker fails while the other
	// still has more buckets to key than chunks to fill.
	cases := []struct {
		name   string
		wrap   func(store) store
		failAt string // the table whose sink fails
		want   string
	}{
		{"failing chunk", func(st store) store {
			var hit atomic.Bool
			return faultStore{st, "shard-000", func(_ []byte, off int64) error {
				if off > 0 && !hit.Swap(true) {
					return errDisk
				}
				return nil
			}}
		}, "", errDisk.Error()},
		{"bad span bucket", func(st store) store {
			var hit atomic.Bool
			return faultStore{st, ".span", func(p []byte, _ int64) error {
				if len(p) >= 8 && !hit.Swap(true) {
					p[7] = 0x40 // the first record's sample index, far out of range
				}
				return nil
			}}
		}, "", "outside"},
		{"failing sink", nil, "movie_keyword", errSinkFull.Error()},
	}
	for _, tc := range cases {
		opts := DefaultStreamOptions(11, "")
		opts.Workers = 2
		opts.Shards = 3
		opts.Partitions = 16
		base := runtime.NumGoroutine()
		set, err := gen.SampleShards(func() join.TupleSampler { return o }, 6000, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tc.wrap != nil {
			set.st = tc.wrap(set.st)
		}
		opts.OutDir = t.TempDir()
		err = gen.merge(set, opts, &StreamResult{}, func(c *tableCtx) (rowSink, error) {
			if c.t.Name == tc.failAt {
				return &failSink{left: 10}, nil
			}
			return &failSink{left: -1}, nil
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: merge returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		// A goroutine may still be returning from its last deferred call.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines running after the merge failed, %d before it", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestGroupArena groups two partitions of a synthetic raw run, with and
// without members, against a map and a sort: the same groups, masses
// summed in record order, first-record codes and members in record
// order, walked in (hash, key bytes) order. Grouping a partition again in
// the warm arena allocates nothing.
func TestGroupArena(t *testing.T) {
	for _, withSpans := range []bool{true, false} {
		tc := &tableCtx{idCols: []int{0, 1}, ctIdx: []int{2, 3}}
		lay := newRecLayout(tc, withSpans)
		run, err := newSpillRun(newMemStore(), "raw", make([][]byte, 2), lay.rawSize)
		if err != nil {
			t.Fatal(err)
		}
		defer run.drop()
		type refGroup struct {
			key     string
			gw      float64
			codes   []int32
			members []memberRec
		}
		ref := make([]map[string]*refGroup, 2)
		for p := range ref {
			ref[p] = map[string]*refGroup{}
		}
		rng := rand.New(rand.NewSource(3))
		var rec []byte
		for i := 0; i < 5000; i++ {
			w := rng.Float64()
			rec = putF64(rec[:0], w)
			rec = putU64(rec, uint64(rng.Intn(6)))
			rec = putI32s(rec, []int32{int32(rng.Intn(3)), int32(rng.Intn(4)), int32(rng.Intn(5)), int32(rng.Intn(2))})
			if withSpans {
				rec = putU64(rec, uint64(i))
			}
			part := i % 2
			if err := run.write(part, rec); err != nil {
				t.Fatal(err)
			}
			key := string(rec[8:lay.keyEnd])
			g := ref[part][key]
			if g == nil {
				g = &refGroup{key: key, codes: make([]int32, lay.nc+lay.npc)}
				getI32s(rec[lay.codeOff():], g.codes)
				ref[part][key] = g
			}
			g.gw += w
			if withSpans {
				g.members = append(g.members, memberRec{idx: int64(i), w: w})
			}
		}
		if err := run.finish(); err != nil {
			t.Fatal(err)
		}
		var a groupArena
		for part := range ref {
			if err := a.build(run, part, lay); err != nil {
				t.Fatal(err)
			}
			var want []*refGroup
			for _, g := range ref[part] {
				want = append(want, g)
			}
			slices.SortFunc(want, func(x, y *refGroup) int {
				if c := cmp.Compare(keyHash([]byte(x.key)), keyHash([]byte(y.key))); c != 0 {
					return c
				}
				return strings.Compare(x.key, y.key)
			})
			if len(a.order) != len(want) {
				t.Fatalf("withSpans=%v partition %d: %d groups, want %d", withSpans, part, len(a.order), len(want))
			}
			for i, gi := range a.order {
				got, w := a.group(gi), want[i]
				if got.pk != int64(getU64([]byte(w.key))) || got.gw != w.gw || !slices.Equal(got.codes, w.codes) || !slices.Equal(got.members, w.members) {
					t.Fatalf("withSpans=%v partition %d: group %d is %+v, want %+v", withSpans, part, i, got, *w)
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if err := a.build(run, 0, lay); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("withSpans=%v: warm grouping of a partition made %.0f allocations", withSpans, allocs)
		}
	}
}
