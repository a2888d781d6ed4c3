package core

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sam/internal/datagen"
	"sam/internal/join"
	"sam/internal/tensor"
)

// writeFaultStore wraps a store: the stream it creates fails its failAt-th
// Write (counting from 1) with errDisk, and closed records whether the
// stream was closed.
type writeFaultStore struct {
	store
	failAt int
	closed *bool
}

var errDisk = errors.New("disk gone")

func (s writeFaultStore) create(name string) (io.WriteCloser, error) {
	w, err := s.store.create(name)
	if err != nil {
		return nil, err
	}
	return &faultWriter{WriteCloser: w, failAt: s.failAt, closed: s.closed}, nil
}

type faultWriter struct {
	io.WriteCloser
	writes, failAt int
	closed         *bool
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == w.failAt {
		return 0, errDisk
	}
	return w.WriteCloser.Write(p)
}

func (w *faultWriter) Close() error {
	*w.closed = true
	return w.WriteCloser.Close()
}

// TestSampleOneShardWriteError fails a shard stream's second chunk write:
// the error names the shard write and wraps the store's, the stream is
// closed, and sampling stops at the failed write instead of drawing the
// rest of the shard.
func TestSampleOneShardWriteError(t *testing.T) {
	orig := datagen.IMDB(7, 120)
	l := join.NewLayout(orig)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	const batch = 16
	sw := newShardWorker(batch, l.NumCols())
	chunkRows := len(sw.chunk) / l.NumCols()
	var closed bool
	st := writeFaultStore{newMemStore(), 2, &closed}
	opts := DefaultStreamOptions(5, "")
	opts.Batch = batch
	drawn := 0
	_, err = gen.sampleOneShard(st, join.NewOracle(l), sw, 0, 0, 3*chunkRows+5, "shards", nil, opts,
		func(n int) { drawn += n })
	if err == nil || !strings.Contains(err.Error(), "write shard") || !errors.Is(err, errDisk) {
		t.Fatalf("sampleOneShard returned %v, want a shard write error wrapping %v", err, errDisk)
	}
	if !closed {
		t.Fatal("the failed shard stream was not closed")
	}
	if drawn != 2*chunkRows {
		t.Fatalf("drew %d samples, want %d: sampling must stop at the failed write", drawn, 2*chunkRows)
	}
}

// TestSampleShardsCreateErrorStopsWorkers makes one shard's stream
// impossible to create at Workers 2: SampleShards returns the creation
// error, and no sampling goroutine outlives it.
func TestSampleShardsCreateErrorStopsWorkers(t *testing.T) {
	orig := datagen.IMDB(7, 120)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultStreamOptions(11, t.TempDir())
	opts.Workers = 2
	opts.Shards = 4
	if err := os.MkdirAll(filepath.Join(opts.OutDir, "shards", "shard-001"), 0o755); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	_, err = gen.SampleShards(func() join.TupleSampler { return o }, 6000, opts)
	if err == nil || !strings.Contains(err.Error(), "create shard-001") {
		t.Fatalf("SampleShards returned %v, want the error creating shard-001", err)
	}
	// A goroutine may still be returning from its last deferred call.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after sampling failed, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// goroutineSampler records runtime.NumGoroutine() on every sampling call.
type goroutineSampler struct {
	join.TupleSampler
	seen *[]int
}

func (s goroutineSampler) SampleFOJBatch(rngs []*rand.Rand, dst []int32) {
	*s.seen = append(*s.seen, runtime.NumGoroutine())
	s.TupleSampler.SampleFOJBatch(rngs, dst)
}

// settledGoroutines returns the goroutine count once goroutines that
// earlier tests left exiting are gone: once it has held for 20 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for held, deadline := 0, time.Now().Add(5*time.Second); held < 20 && time.Now().Before(deadline); held++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, held = m, -1
		}
	}
	return n
}

// TestGenerateOneWorkerRunsOnCaller pins Workers = 1: Generate samples
// and merges on the calling goroutine alone, so every sampling call sees
// the goroutine count from before Generate.
func TestGenerateOneWorkerRunsOnCaller(t *testing.T) {
	orig := datagen.IMDB(7, 120)
	l := join.NewLayout(orig)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions(3)
	opts.Samples = 3000
	opts.Workers = 1
	var seen []int
	s := goroutineSampler{join.NewOracle(l), &seen}
	base := settledGoroutines()
	if _, err := gen.Generate(func() join.TupleSampler { return s }, opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Fatal("the sampler was never called")
	}
	for i, n := range seen {
		if n != base {
			t.Fatalf("sampling call %d saw %d goroutines, want %d as before Generate", i, n, base)
		}
	}
}

// TestSampleShardsWorkersIgnoreKernelBudget pins that Workers alone sets
// the sampling goroutines: with serial matmul kernels (no kernel budget
// to spare), Workers 2 over 2 shards still builds a sampler per worker.
func TestSampleShardsWorkersIgnoreKernelBudget(t *testing.T) {
	defer tensor.SetMatMulWorkers(tensor.MatMulWorkers())
	tensor.SetMatMulWorkers(1)
	orig := datagen.IMDB(7, 120)
	l := join.NewLayout(orig)
	o := join.NewOracle(l)
	gen, err := NewGenerator(l, identityDiscs(l), sizesOf(orig))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultStreamOptions(13, "")
	opts.Workers = 2
	opts.Shards = 2
	var built atomic.Int32
	if _, err := gen.SampleShards(func() join.TupleSampler {
		built.Add(1)
		return o
	}, 2000, opts); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 2 {
		t.Fatalf("SampleShards built %d samplers at Workers 2, want 2", n)
	}
}
