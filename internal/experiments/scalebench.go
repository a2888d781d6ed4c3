package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sam/internal/core"
	"sam/internal/obs"
)

// ScaleBenchConfig sizes one scale-benchmark run.
type ScaleBenchConfig struct {
	// Rows is the FOJ sample count AND the generated table size (single
	// table, so the two coincide).
	Rows int
	// Shards, Workers, Batch, Partitions mirror core.StreamOptions; zero
	// values take the streaming defaults.
	Shards     int
	Workers    int
	Batch      int
	Partitions int
	// Dir receives the run's shards, spill files, and CSV; it should be
	// scratch space (the run's outputs are deleted afterwards).
	Dir string
	// Seed drives the sampler.
	Seed int64
	// RunID correlates the report with the run's run log and metrics
	// artifacts; empty generates a fresh one.
	RunID string
	// Hooks and Span let the caller observe the benchmarked run itself
	// (the CLI threads its -runlog/-progress/-metrics-out observers
	// through here). The per-pass wall split is collected regardless.
	Hooks *obs.Hooks
	Span  *obs.Span
}

// ScaleBenchReport is the document written to BENCH_scale.json: paper-scale
// streaming generation throughput with the memory watermarks that prove the
// pipeline stayed bounded.
type ScaleBenchReport struct {
	Description string   `json:"description"`
	Meta        obs.Meta `json:"meta"`
	RunID       string   `json:"run_id,omitempty"`
	Rows        int      `json:"rows"`
	Shards      int      `json:"shards"`
	Workers     int      `json:"workers"`
	Batch       int      `json:"batch"`
	Partitions  int      `json:"partitions"`
	// SampleWallMs / MergeWallMs / TotalWallMs split the run into its
	// sampling and external-merge phases.
	SampleWallMs int64 `json:"sample_wall_ms"`
	MergeWallMs  int64 `json:"merge_wall_ms"`
	TotalWallMs  int64 `json:"total_wall_ms"`
	// The per-pass wall split of the merge (spill passes A/B, summed
	// across tables), from the pipeline's StreamPass telemetry — the
	// evidence benchgate cites when the throughput floor trips, so a
	// regression names its pass.
	PassAWallMs int64 `json:"pass_a_wall_ms"`
	PassBWallMs int64 `json:"pass_b_wall_ms"`
	// SampleRowsPerSec is FOJ tuples drawn (and spilled to shards) per
	// second; RowsPerSec is end-to-end generated rows per second including
	// the merge.
	SampleRowsPerSec float64 `json:"sample_rows_per_sec"`
	RowsPerSec       float64 `json:"rows_per_sec"`
	// PeakHeapBytes is the maximum Go heap-in-use observed by a ~25ms
	// watermark sampler during the run; PeakRSSBytes is the process VmHWM
	// from /proc/self/status (0 where unavailable). These are the gate's
	// evidence that generation at paper scale never holds the sample set
	// resident.
	PeakHeapBytes int64 `json:"peak_heap_bytes"`
	PeakRSSBytes  int64 `json:"peak_rss_bytes"`
	// ShardBytes is the on-disk size of the sample shards (the data an
	// in-memory Generate would hold resident).
	ShardBytes int64 `json:"shard_bytes"`
}

// heapWatermark samples runtime.ReadMemStats on a fixed cadence and
// records the maximum heap-in-use. Stop before reading the peak.
type heapWatermark struct {
	peak atomic.Int64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapWatermark(interval time.Duration) *heapWatermark {
	w := &heapWatermark{done: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if inuse := int64(ms.HeapInuse); inuse > w.peak.Load() {
				w.peak.Store(inuse)
			}
			select {
			case <-w.done:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatermark) stop() int64 {
	close(w.done)
	w.wg.Wait()
	return w.peak.Load()
}

// readVmHWM returns the process's peak resident set (VmHWM) in bytes from
// /proc/self/status, or 0 on platforms without it.
func readVmHWM() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// RunScaleBench generates cfg.Rows rows through the sharded streaming
// pipeline (benchSamplerModel's single-table MADE net — the same model the
// tensor benchmarks sample) and reports throughput plus memory watermarks.
// The run's on-disk outputs are removed before returning; only the report
// survives.
func RunScaleBench(cfg ScaleBenchConfig) (*ScaleBenchReport, error) {
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("scalebench: rows must be positive, got %d", cfg.Rows)
	}
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "scalebench")
		if err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	m := benchSamplerModel()
	gen, err := core.FromModel(m, map[string]int{"t": cfg.Rows})
	if err != nil {
		return nil, err
	}
	opts := core.DefaultStreamOptions(cfg.Seed, dir)
	opts.Samples = cfg.Rows
	opts.Shards = cfg.Shards
	opts.Workers = cfg.Workers
	if cfg.Batch > 0 {
		opts.Batch = cfg.Batch
	}
	opts.Partitions = cfg.Partitions
	opts.Span = cfg.Span

	runID := cfg.RunID
	if runID == "" {
		runID = obs.NewRunID()
	}
	// Accumulate the merge's per-pass wall split from the pipeline's own
	// StreamPass events (summed across tables; shard walls overlap across
	// workers so the sampling phase keeps its single SampleWallMs figure).
	var passWall struct {
		mu     sync.Mutex
		pa, pb time.Duration
	}
	split := &obs.Hooks{OnStreamPass: func(p obs.StreamPass) {
		passWall.mu.Lock()
		switch p.Pass {
		case "A":
			passWall.pa += p.Wall
		case "B":
			passWall.pb += p.Wall
		}
		passWall.mu.Unlock()
	}}
	opts.Hooks = obs.Merge(split, cfg.Hooks)

	wm := startHeapWatermark(25 * time.Millisecond)
	start := time.Now()
	set, err := gen.SampleShards(core.ModelSampler(m, opts.Batch), cfg.Rows, opts)
	if err != nil {
		wm.stop()
		return nil, err
	}
	shardBytes := set.Bytes()
	res, err := gen.MaterializeStream(set, opts)
	if err != nil {
		wm.stop()
		return nil, err
	}
	total := time.Since(start)
	peakHeap := wm.stop()

	rep := &ScaleBenchReport{
		Description: "sharded streaming generation at scale: single-table MADE sampling through the bounded-memory spill merge; watermarks prove peak memory does not grow with rows",
		Meta:        obs.BuildMeta(),
		RunID:       runID,
		Rows:        cfg.Rows,
		Shards:      len(set.Paths),
		Workers:     opts.Workers,
		Batch:       opts.Batch,
		Partitions:  opts.Partitions,

		SampleWallMs:  set.Wall.Milliseconds(),
		MergeWallMs:   res.MergeWall.Milliseconds(),
		TotalWallMs:   total.Milliseconds(),
		PassAWallMs:   passWall.pa.Milliseconds(),
		PassBWallMs:   passWall.pb.Milliseconds(),
		PeakHeapBytes: peakHeap,
		PeakRSSBytes:  readVmHWM(),
		ShardBytes:    shardBytes,
	}
	if rep.Workers <= 0 {
		rep.Workers = runtime.GOMAXPROCS(0)
	}
	if rep.Partitions <= 0 {
		rep.Partitions = 64
	}
	if s := set.Wall.Seconds(); s > 0 {
		rep.SampleRowsPerSec = float64(cfg.Rows) / s
	}
	if s := total.Seconds(); s > 0 {
		rep.RowsPerSec = float64(res.Rows["t"]) / s
	}
	if res.Rows["t"] != cfg.Rows {
		return nil, fmt.Errorf("scalebench: generated %d rows, want %d", res.Rows["t"], cfg.Rows)
	}
	return rep, nil
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *ScaleBenchReport) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// CompareScale gates a scale report: rows/sec must stay at or above
// minRowsPerSec and the peak memory watermarks must stay under
// maxPeakBytes (heap always; RSS too when the platform reported it). Both
// floors are machine-calibrated by the caller; zero disables a gate.
// Returns one violation string per breach.
func CompareScale(rep *ScaleBenchReport, minRowsPerSec float64, maxPeakBytes int64) []string {
	var out []string
	if minRowsPerSec > 0 && rep.RowsPerSec < minRowsPerSec {
		v := fmt.Sprintf("scale: %.0f rows/sec below required %.0f (rows=%d)",
			rep.RowsPerSec, minRowsPerSec, rep.Rows)
		// Name the pass when the report carries the split, so the gate's
		// failure points at the regressed phase rather than the aggregate.
		if rep.PassAWallMs+rep.PassBWallMs > 0 {
			v += fmt.Sprintf(" (pass split: sample=%dms A=%dms B=%dms)",
				rep.SampleWallMs, rep.PassAWallMs, rep.PassBWallMs)
		}
		out = append(out, v)
	}
	if maxPeakBytes > 0 {
		if rep.PeakHeapBytes > maxPeakBytes {
			out = append(out, fmt.Sprintf("scale: peak heap %d bytes exceeds ceiling %d (unbounded generation memory?)",
				rep.PeakHeapBytes, maxPeakBytes))
		}
		if rep.PeakRSSBytes > 0 && rep.PeakRSSBytes > maxPeakBytes {
			out = append(out, fmt.Sprintf("scale: peak RSS %d bytes exceeds ceiling %d (unbounded generation memory?)",
				rep.PeakRSSBytes, maxPeakBytes))
		}
	}
	return out
}
