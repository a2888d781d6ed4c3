package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/ar"
	"sam/internal/join"
	"sam/internal/obs"
)

// StreamOptions configures the sharded, bounded-memory generation path.
// It extends GenOptions with the shard and spill layout. Generate uses the
// same engine with a memory store and a small fixed partition count
// (memPartitions). Both paths share the determinism contract: the
// generated database is a pure function of (Seed, Samples), and the shard
// and spill layout, like Workers, only trade speed for memory.
type StreamOptions struct {
	GenOptions

	// Shards is the number of sample shards; 0 derives one shard per
	// defaultShardRows rows (at least one). Workers sample whole shards, so
	// the count bounds sampling parallelism; it never changes the output.
	Shards int
	// OutDir receives the shard sample files (subdirectory "shards"), the
	// merge's spill files (subdirectory ".spill", removed when the merge
	// finishes) and, via GenerateStream, one CSV per generated table. An
	// empty OutDir makes SampleShards keep its shards in memory.
	OutDir string
	// Partitions is the spill fan-out of the external group-and-merge;
	// 0 defaults to 64. The merge walks its groups in hash order whatever
	// the fan-out, so Partitions bounds merge memory and never changes the
	// output.
	Partitions int
}

// DefaultStreamOptions mirrors DefaultGenOptions for the streaming path.
func DefaultStreamOptions(seed int64, outDir string) StreamOptions {
	return StreamOptions{GenOptions: DefaultGenOptions(seed), OutDir: outDir}
}

// defaultShardRows sizes auto-derived shards. The shard layout does not
// change the output, so the size only trades scheduling granularity
// against per-shard overhead. Small enough that a few tens of thousands
// of samples still spread over several sampling workers.
const defaultShardRows = 1 << 14

// rowsPerChunk is how many rows a sampling worker buffers before it
// writes them to its shard stream. Output bytes do not depend on it.
const rowsPerChunk = 8192

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

// ShardSet describes the sample shards one run produced: where they are
// and how many rows they hold. A shard is a headerless stream of
// row-major little-endian int32 model codes, NCols per row, stored the
// way the merge stores its spill records: only the process that wrote a
// shard reads it, and that process knows its column count and row total.
type ShardSet struct {
	NCols int
	Paths []string
	Total int
	// Wall is the sampling phase's wall time (telemetry for scale
	// benchmarks).
	Wall time.Duration

	st store // the backend holding the shards; the merge spills to it too
}

// Bytes is the total size of the shard streams: four bytes per code.
func (s *ShardSet) Bytes() int64 {
	return 4 * int64(s.Total) * int64(s.NCols)
}

// shardPath names shard s's stream in dir.
func shardPath(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
}

// SampleShards draws k sanitized FOJ samples into len == shardCount shard
// streams under opts.OutDir/shards, or into a memory store when
// opts.OutDir is empty. min(Workers, shards) goroutines, the caller among
// them, sample one whole shard at a time each. A worker fills one chunk
// buffer and writes it to the shard stream whenever it is full, so the
// sampler's own memory is O(workers × rowsPerChunk × NumCols) regardless
// of k, and at one worker sampling starts no goroutine.
//
// Sample i draws from its own stream, ar.SplitSeed(Seed, i), whatever
// shard, lane or goroutine draws it, so the samples are a pure function of
// (Seed, k): the shard count, Batch and Workers change only how they are
// laid out and how fast they are drawn.
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
	workers := min(opts.workerCount(), S)

	var st store = dirStore{}
	if opts.OutDir == "" {
		st = newMemStore()
	}
	dir := filepath.Join(opts.OutDir, "shards")
	if err := st.mkdirAll(dir); err != nil {
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

	set := &ShardSet{NCols: ncols, Paths: make([]string, S), Total: k, st: st}

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
		sw := newShardWorker(batch, ncols)
		sampler := newSampler()
		for {
			si := int(next.Add(1)) - 1
			if si >= S || failed.Load() {
				return
			}
			lo, hi := shardRange(k, S, si)
			path, err := g.sampleOneShard(st, sampler, sw, si, lo, hi-lo, dir, span, opts, emitProgress)
			if err != nil {
				fail(err)
				return
			}
			set.Paths[si] = path
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
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
	opts.Hooks.GenPhase(obs.GenPhase{Phase: "sample", Tuples: k, Wall: set.Wall})
	return set, nil
}

// shardWorker is one sampling goroutine's state, reused for every shard
// it samples: a lane rng per batch lane, the chunk buffer and its encode
// buffer.
type shardWorker struct {
	rngs  []*rand.Rand
	chunk []int32
	wbuf  []byte
}

func newShardWorker(batch, ncols int) *shardWorker {
	sw := &shardWorker{rngs: make([]*rand.Rand, batch)}
	for l := range sw.rngs {
		sw.rngs[l] = ar.NewSampleRand(0)
	}
	// The chunk holds whole sweeps so a batched sweep never straddles a
	// write.
	chunkRows := (rowsPerChunk + batch - 1) / batch * batch
	sw.chunk = make([]int32, chunkRows*ncols)
	sw.wbuf = make([]byte, 0, 4*chunkRows*ncols)
	return sw
}

// sampleOneShard draws samples lo … lo+rows-1 into one shard stream in
// st, on the calling goroutine: it fills the worker's chunk buffer, then
// encodes and writes it, and samples on. Each lane is reseeded to its
// sample's stream before every sweep. The chunk size affects only memory
// and write granularity — the byte stream is fixed by (Seed, lo, rows).
//
// Telemetry (the per-shard span under psp, the stream_pass "shard"
// event) is strictly observational: the sampling order, rng consumption
// and shard bytes are identical with observers on or off.
func (g *Generator) sampleOneShard(st store, sampler join.TupleSampler, sw *shardWorker,
	shard, lo, rows int, dir string, psp *obs.Span, opts StreamOptions, emitProgress func(int)) (string, error) {
	ncols := g.Layout.NumCols()
	rngs := sw.rngs
	chunkRows := len(sw.chunk) / ncols

	shardStart := time.Now()
	sp := psp.Child("shard")
	sp.SetAttr("shard", shard)
	sp.SetAttr("rows", rows)
	defer sp.End()

	path := shardPath(dir, shard)
	f, err := st.create(path)
	if err != nil {
		return "", err
	}
	filled := 0 // rows in sw.chunk
	for done := 0; done < rows && err == nil; {
		n := min(len(rngs), rows-done)
		dst := sw.chunk[filled*ncols : (filled+n)*ncols]
		for l, r := range rngs[:n] {
			r.Seed(ar.SplitSeed(opts.Seed, lo+done+l))
		}
		sampler.SampleFOJBatch(rngs[:n], dst)
		for i := 0; i < n; i++ {
			g.sanitize(dst[i*ncols : (i+1)*ncols])
		}
		filled += n
		done += n
		emitProgress(n)
		if filled == chunkRows || done == rows {
			sw.wbuf = putI32s(sw.wbuf[:0], sw.chunk[:filled*ncols])
			filled = 0
			if _, err = f.Write(sw.wbuf); err != nil {
				err = fmt.Errorf("core: write shard rows: %w", err)
			}
		}
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: close shard: %w", cerr)
	}
	if err != nil {
		return "", err
	}
	if opts.Hooks.WantsStreamPass() {
		opts.Hooks.StreamPass(obs.StreamPass{
			Pass: "shard", Shard: shard,
			RecordsOut:   int64(rows),
			BytesWritten: 4 * int64(rows) * int64(ncols),
			Wall:         time.Since(shardStart),
		})
	}
	return path, nil
}
