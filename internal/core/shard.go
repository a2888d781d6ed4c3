package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/ar"
	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
	"sam/internal/tensor"
)

// StreamOptions configures the sharded, bounded-memory generation path.
// It extends GenOptions: Seed/Batch/Workers keep their meanings, but the
// determinism contract tightens — a shard's bytes are a pure function of
// (Seed, shard index, shard row range, Batch), independent of Workers,
// ChunkRows, and of which goroutine happens to sample the shard. Workers
// only parallelize across shards.
type StreamOptions struct {
	GenOptions

	// Shards is the number of sample shards; 0 derives one shard per
	// defaultShardRows rows (at least one). The shard count is part of the
	// reproducibility coordinates: it fixes each shard's row range.
	Shards int
	// OutDir receives the shard sample files (subdirectory "shards") and,
	// via GenerateStream, one CSV per generated table.
	OutDir string
	// ChunkRows bounds the rows buffered between a shard's sampling
	// goroutine and its writer; 0 defaults to 8192. Purely a
	// memory/backpressure knob — output bytes do not depend on it.
	ChunkRows int
	// Partitions is the spill fan-out of the external group-and-merge;
	// 0 defaults to 64. Part of the merge's determinism coordinates (it
	// fixes the group traversal order), not of the shard sampling contract.
	Partitions int
	// SpillDir holds the merge's temporary partition files; defaults to
	// OutDir/.spill and is removed when the merge finishes.
	SpillDir string
	// KeepSamples leaves the shard sample files in place after
	// GenerateStream materializes the tables (they are removed otherwise).
	KeepSamples bool
}

// DefaultStreamOptions mirrors DefaultGenOptions for the streaming path.
func DefaultStreamOptions(seed int64, outDir string) StreamOptions {
	return StreamOptions{GenOptions: DefaultGenOptions(seed), OutDir: outDir}
}

// defaultShardRows sizes auto-derived shards. Deliberately a function of
// the requested row count only — never of the machine — so default runs
// stay reproducible across hosts.
const defaultShardRows = 1 << 18

// defaultChunkRows bounds sampler→writer buffering per shard.
const defaultChunkRows = 8192

// chunkBuffers is the depth of each shard's free-buffer pool: the sampler
// stalls (backpressure) once this many chunks are in flight to the writer.
const chunkBuffers = 3

// shardCount resolves the shard count for k rows.
func (o *StreamOptions) shardCount(k int) int {
	if o.Shards > 0 {
		return min(o.Shards, max(k, 1))
	}
	return max((k+defaultShardRows-1)/defaultShardRows, 1)
}

// shardRange returns shard s's row range under S balanced shards of k.
func shardRange(k, S, s int) (lo, hi int) {
	return s * k / S, (s + 1) * k / S
}

// ShardSet describes the sample shards one run produced: where they are,
// how many rows each holds, and the sampling coordinates needed to
// regenerate any of them independently.
type ShardSet struct {
	Dir   string
	NCols int
	Seed  int64
	Batch int
	Paths []string
	Rows  []int
	Total int
	// Wall is the sampling phase's wall time (telemetry for scale
	// benchmarks).
	Wall time.Duration
}

// Bytes sums the on-disk size of the shard files.
func (s *ShardSet) Bytes() int64 {
	var n int64
	for _, p := range s.Paths {
		if fi, err := os.Stat(p); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// OpenShardSet rebuilds a ShardSet from a directory of shard files
// (sorted by shard index); used to re-merge previously sampled shards.
func OpenShardSet(dir string) (*ShardSet, error) {
	set := &ShardSet{Dir: dir}
	for shard := 0; ; shard++ {
		path := filepath.Join(dir, relation.ShardFileName(shard))
		r, err := relation.OpenShardFile(path)
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		if err != nil {
			return nil, err
		}
		rows := int(r.Rows())
		if set.NCols == 0 {
			set.NCols = r.NCols()
			set.Seed = r.Seed()
		} else if r.NCols() != set.NCols {
			//lint:allow errpropagate read-only close on an error path; the column mismatch dominates
			r.Close()
			return nil, fmt.Errorf("core: shard %d has %d columns, want %d", shard, r.NCols(), set.NCols)
		}
		if err := r.Close(); err != nil {
			return nil, err
		}
		if rows < 0 {
			return nil, fmt.Errorf("core: shard %d has no recorded row count", shard)
		}
		set.Paths = append(set.Paths, path)
		set.Rows = append(set.Rows, rows)
		set.Total += rows
	}
	if len(set.Paths) == 0 {
		//lint:allow closeleak the loop only breaks when OpenShardFile failed, so r is nil here; every opened reader was closed in the loop body
		return nil, fmt.Errorf("core: no shard files in %s", dir)
	}
	return set, nil
}

// SampleShards draws k sanitized FOJ samples into len == shardCount binary
// shard files under opts.OutDir/shards. Shards are sampled by up to
// opts.Workers goroutines (one shard at a time each), and each shard
// streams through a bounded chunk pipeline to its writer, so peak memory
// is O(workers × ChunkRows × NumCols) regardless of k.
//
// Shard s's bytes are a pure function of (Seed, s, its row range, Batch):
// lane l of shard s always consumes rng stream
// ar.LaneSeed(ar.SplitSeed(Seed, s), l), whichever goroutine samples it
// and in whatever order shards are claimed.
func (g *Generator) SampleShards(newSampler func() join.TupleSampler, k int, opts StreamOptions) (*ShardSet, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: sample count %d must be positive", k)
	}
	span := opts.Span.Child("sample")
	defer span.End()
	start := time.Now()

	ncols := g.Layout.NumCols()
	S := opts.shardCount(k)
	batch := max(opts.Batch, 1)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(max(workers, 1), S)
	chunkRows := opts.ChunkRows
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows
	}
	// Chunks hold whole sweeps so a batched sweep never straddles buffers.
	chunkRows = (chunkRows + batch - 1) / batch * batch

	dir := filepath.Join(opts.OutDir, "shards")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: shard dir: %w", err)
	}

	span.SetAttr("tuples", k)
	span.SetAttr("shards", S)
	span.SetAttr("workers", workers)
	span.SetAttr("batch", batch)

	var prog *obs.Progress
	if opts.Hooks.WantsGenProgress() {
		prog = obs.NewProgress(int64(k), 2*time.Second)
	}
	const progressInterval = 100 * time.Millisecond
	emitProgress := func(n int) {
		if prog == nil {
			return
		}
		prog.Add(int64(n))
		if prog.ShouldEmit(progressInterval) {
			s := prog.Snapshot()
			opts.Hooks.GenProgress(obs.GenProgress{
				Phase: "sample", Done: int(s.Done), Total: int(s.Total),
				Rate: s.Rate, ETA: s.ETA,
			})
		}
	}

	set := &ShardSet{Dir: dir, NCols: ncols, Seed: opts.Seed, Batch: batch,
		Paths: make([]string, S), Rows: make([]int, S), Total: k}

	// Worker×lane composition as in drawSamples: each extra sampling
	// goroutine holds a kernel token so sampler parallelism and the matmul
	// kernels share one core budget.
	phys := 1
	if workers > 1 {
		phys += tensor.AcquireKernelTokens(workers - 1)
	}

	var failed atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		failed.Store(true)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func() {
		rngs := make([]*rand.Rand, batch)
		for l := range rngs {
			rngs[l] = rand.New(rand.NewSource(0))
		}
		sampler := newSampler()
		for {
			si := int(next.Add(1)) - 1
			if si >= S || failed.Load() {
				return
			}
			lo, hi := shardRange(k, S, si)
			rows, path, err := g.sampleOneShard(sampler, rngs, si, hi-lo, dir, chunkRows, span, opts, emitProgress)
			if err != nil {
				fail(fmt.Errorf("core: shard %d: %w", si, err))
				return
			}
			set.Paths[si] = path
			set.Rows[si] = rows
		}
	}
	for p := 1; p < phys; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	if phys > 1 {
		tensor.ReleaseKernelTokens(phys - 1)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if prog != nil {
		s := prog.Snapshot()
		opts.Hooks.GenProgress(obs.GenProgress{
			Phase: "sample", Done: int(s.Done), Total: int(s.Total), Rate: s.Rate,
		})
	}
	set.Wall = time.Since(start)
	span.SetAttr("goroutines", phys)
	opts.Hooks.GenPhase(obs.GenPhase{Phase: "sample", Tuples: k, Wall: set.Wall})
	return set, nil
}

// SampleShard regenerates a single shard of a (Seed, k, shardCount, Batch)
// configuration, bit-identical to the same shard of a full SampleShards
// run — the contract that lets a lost or corrupted shard be rebuilt
// without touching the others. The shard file is written under dir (a
// shard directory, e.g. ShardSet.Dir).
func (g *Generator) SampleShard(newSampler func() join.TupleSampler, k, shard int, dir string, opts StreamOptions) (string, int, error) {
	S := opts.shardCount(k)
	if shard < 0 || shard >= S {
		return "", 0, fmt.Errorf("core: shard %d outside [0,%d)", shard, S)
	}
	batch := max(opts.Batch, 1)
	chunkRows := opts.ChunkRows
	if chunkRows <= 0 {
		chunkRows = defaultChunkRows
	}
	chunkRows = (chunkRows + batch - 1) / batch * batch
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("core: shard dir: %w", err)
	}
	rngs := make([]*rand.Rand, batch)
	for l := range rngs {
		rngs[l] = rand.New(rand.NewSource(0))
	}
	lo, hi := shardRange(k, S, shard)
	rows, path, err := g.sampleOneShard(newSampler(), rngs, shard, hi-lo, dir, chunkRows, opts.Span, opts, func(int) {})
	if err != nil {
		return "", 0, fmt.Errorf("core: shard %d: %w", shard, err)
	}
	return path, rows, nil
}

// sampleOneShard draws rows tuples for one shard, streaming them to the
// shard file through a bounded chunk pipeline: the sampler fills pooled
// chunk buffers and blocks when chunkBuffers of them are in flight, the
// writer goroutine drains them in order. The chunk size affects only
// memory and syscall granularity — the byte stream is fixed by
// (Seed, shard, rows, Batch).
//
// Telemetry (the per-shard span under psp, the stream_pass "shard" event
// with its backpressure wait) is strictly observational: the sampling
// order, rng consumption, and shard bytes are identical with observers on
// or off, and the per-chunk wait clock only runs when a hook listens.
func (g *Generator) sampleOneShard(sampler join.TupleSampler, rngs []*rand.Rand,
	shard, rows int, dir string, chunkRows int, psp *obs.Span, opts StreamOptions, emitProgress func(int)) (int, string, error) {
	ncols := g.Layout.NumCols()
	batch := len(rngs)
	base := ar.SplitSeed(opts.Seed, shard)
	for l := range rngs {
		rngs[l].Seed(ar.LaneSeed(base, l))
	}

	shardStart := time.Now()
	sp := psp.Child("shard")
	sp.SetAttr("shard", shard)
	sp.SetAttr("rows", rows)
	defer sp.End()
	wantPass := opts.Hooks.WantsStreamPass()

	w, err := relation.CreateShardFile(dir, shard, ncols, opts.Seed)
	if err != nil {
		return 0, "", err
	}

	type chunk struct {
		buf  []int32
		rows int
	}
	full := make(chan chunk, chunkBuffers)
	free := make(chan []int32, chunkBuffers)
	for i := 0; i < chunkBuffers; i++ {
		free <- make([]int32, chunkRows*ncols)
	}
	var writeFailed atomic.Bool
	writeErr := make(chan error, 1)
	go func() {
		var err error
		for c := range full {
			if err == nil {
				if err = w.WriteRows(c.buf[:c.rows*ncols]); err != nil {
					writeFailed.Store(true)
				}
			}
			free <- c.buf
		}
		writeErr <- err
	}()

	// bpWait accumulates time blocked on the bounded chunk pipeline (all
	// chunkBuffers buffers in flight to the writer) — the backpressure
	// signal behind stream_backpressure_wait_seconds. The clock only runs
	// when a StreamPass hook listens; the channel protocol is identical
	// either way.
	var bpWait time.Duration
	takeFree := func() []int32 {
		if !wantPass {
			return <-free
		}
		select {
		case buf := <-free:
			return buf
		default:
		}
		waitStart := time.Now()
		buf := <-free
		bpWait += time.Since(waitStart)
		return buf
	}
	cur := takeFree()
	filled := 0 // rows in cur
	flush := func() {
		if filled > 0 {
			full <- chunk{cur, filled}
			cur = takeFree()
			filled = 0
		}
	}
	for done := 0; done < rows && !writeFailed.Load(); {
		n := min(batch, rows-done)
		dst := cur[filled*ncols : (filled+n)*ncols]
		sampler.SampleFOJBatch(rngs[:n], dst)
		for i := 0; i < n; i++ {
			g.sanitize(dst[i*ncols : (i+1)*ncols])
		}
		filled += n
		done += n
		emitProgress(n)
		if filled == chunkRows {
			flush()
		}
	}
	flush()
	close(full)
	err = <-writeErr
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, "", err
	}
	if wantPass {
		sp.SetAttr("backpressure_us", bpWait.Microseconds())
		opts.Hooks.StreamPass(obs.StreamPass{
			Pass: "shard", Shard: shard,
			RecordsOut:       int64(rows),
			BytesWritten:     4 * int64(rows) * int64(ncols),
			BackpressureWait: bpWait,
			Wall:             time.Since(shardStart),
		})
	}
	return rows, w.Path(), nil
}
