package core

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sam/internal/join"
	"sam/internal/obs"
	"sam/internal/relation"
)

// defaultPartitions is the spill fan-out when StreamOptions.Partitions is
// unset. Peak merge memory scales with (samples ÷ partitions).
const defaultPartitions = 64

// StreamResult summarizes one streaming generation run.
type StreamResult struct {
	// CSVPaths maps table name → the CSV file its rows streamed into.
	CSVPaths map[string]string
	// Rows is the emitted row count per table.
	Rows map[string]int
	// Groups is the merge-group count per table (telemetry, mirroring the
	// merge GenPhase events).
	Groups map[string]int
	// Samples is the number of FOJ samples consumed.
	Samples int
	// MergeWall is the merge's wall time.
	MergeWall time.Duration
}

// tableCtx caches the per-table layout lookups the streaming passes make
// per sample.
type tableCtx struct {
	t           *relation.Table
	hasChildren bool
	fanIdx      int
	hasFan      bool
	down        []int
	ctIdx       []int // layout column index per t.Cols position
	idCols      []int // identifier columns (internal tables, Group-and-Merge)
	parentCt    []int // the parent's content columns (child tables, ablation)
}

// tableCtxs builds every table's context in topological order. Under
// Group-and-Merge an internal table groups its samples by identifier
// columns; the pairwise-view ablation groups every table by its content
// and its parent's content.
func (g *Generator) tableCtxs(groupAndMerge bool) []*tableCtx {
	tcs := make([]*tableCtx, 0, len(g.Layout.Schema.Tables))
	for _, t := range g.Layout.Schema.Tables {
		fanIdx, hasFan := g.Layout.FanoutIndex(t.Name)
		tc := &tableCtx{
			t:           t,
			hasChildren: len(g.Layout.Schema.Children(t.Name)) > 0,
			fanIdx:      fanIdx,
			hasFan:      hasFan,
			down:        g.Layout.DownweightColumns([]string{t.Name}),
			ctIdx:       g.Layout.ContentColumns(t.Name),
		}
		switch {
		case groupAndMerge && tc.hasChildren:
			tc.idCols = g.Layout.IdentifierColumns(t.Name)
		case !groupAndMerge && t.Parent != "":
			tc.parentCt = g.Layout.ContentColumns(t.Parent)
		}
		tcs = append(tcs, tc)
	}
	return tcs
}

// sampleWeight computes one sample's Alg. 2 weight for the table: zero
// for NULL presence, else Π 1/WeightVals. The weights are never scaled to
// |T|: the systematic allocator divides their mass into |T| equal shares,
// whatever its scale.
func (g *Generator) sampleWeight(tc *tableCtx, row []int32) float64 {
	if tc.hasFan && row[tc.fanIdx] == 0 {
		return 0
	}
	wi := 1.0
	for _, f := range tc.down {
		wi /= g.Layout.Cols[f].WeightVals[row[f]]
	}
	return wi
}

// memberRec is one member of an internal table's group: the sample's
// global index and its weight, which the cell walk splits into key spans.
type memberRec struct {
	idx int64
	w   float64
}

// minSpanFrac is the smallest share of a member's weight that the cell
// walk turns into a span. A smaller piece is not weight but the rounding
// remainder of a cell boundary that lands within an ulp of the member's
// start or end, and as a span it would only seed a child group that earns
// no rows. The floor is relative, so the walk holds no constant that
// depends on the scale of the weights.
const minSpanFrac = 1e-9

// cellSpans is the cell walk of an internal table's group: it lays the
// members end to end over the group's mass gw, cuts that mass into count
// equal cells, one per key allocated to the group, and calls put for each
// piece of a member inside a cell with the cell's index and the share of
// the member's weight the piece holds. Pieces below minSpanFrac are
// dropped.
func cellSpans(members []memberRec, gw float64, count int, put func(m memberRec, cell int, frac float64) error) error {
	cell := gw / float64(count)
	acc := 0.0
	for _, m := range members {
		start, end := acc, acc+m.w
		acc = end
		first := min(int(start/cell), count-1)
		last := min(int(end/cell), count-1)
		for c := first; c <= last; c++ {
			lo := math.Max(start, float64(c)*cell)
			hi := math.Min(end, float64(c+1)*cell)
			if frac := (hi - lo) / m.w; frac >= minSpanFrac {
				if err := put(m, c, frac); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rowSink receives one table's rows from pass B in output order: a CSV
// file for MaterializeStream, an in-memory table for Generate.
type rowSink interface {
	relation.RowWriter
	close() error
}

// checkMerge rejects options the streaming merge cannot run.
func checkMerge(opts StreamOptions) error {
	if opts.OutDir == "" {
		return fmt.Errorf("core: streaming generation needs an output directory")
	}
	return nil
}

// GenerateStream runs the bounded-memory pipeline end to end: sharded
// sampling to opts.OutDir/shards, then the external merge (Group-and-Merge
// or, with GroupAndMerge unset, the pairwise-view ablation) into one CSV
// per table under opts.OutDir. The shard streams are removed
// afterwards, also when the merge fails.
func (g *Generator) GenerateStream(newSampler func() join.TupleSampler, opts StreamOptions) (*StreamResult, error) {
	if err := checkMerge(opts); err != nil {
		return nil, err
	}
	set, err := g.SampleShards(newSampler, g.sampleCount(opts.Samples), opts)
	var res *StreamResult
	if err == nil {
		res, err = g.MaterializeStream(set, opts)
	}
	if rerr := os.RemoveAll(filepath.Join(opts.OutDir, "shards")); err == nil && rerr != nil {
		err = fmt.Errorf("core: remove shard dir: %w", rerr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// MaterializeStream is the external-memory merge: it turns a
// shard set into one CSV per table under opts.OutDir without ever holding
// the samples — or a table — resident. See merge for the passes. A merge
// that fails removes the CSVs it wrote, which would read as a smaller
// database.
func (g *Generator) MaterializeStream(set *ShardSet, opts StreamOptions) (*StreamResult, error) {
	if err := checkMerge(opts); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("core: out dir: %w", err)
	}
	res := &StreamResult{CSVPaths: make(map[string]string, len(g.Layout.Schema.Tables))}
	err := g.merge(set, opts, res, func(tc *tableCtx) (rowSink, error) {
		path := filepath.Join(opts.OutDir, tc.t.Name+".csv")
		res.CSVPaths[tc.t.Name] = path
		return newCSVSink(path, tc.t, tc.hasChildren)
	})
	if err != nil {
		for _, path := range res.CSVPaths {
			os.Remove(path)
		}
		return nil, err
	}
	return res, nil
}

// merge runs Alg. 2 and Alg. 3 over a shard set: per table, in
// topological order, the two spill passes of streamTable, each table's
// rows going to the sink newSink returns. opts.GroupAndMerge picks the key
// policy: Alg. 3's key spans, or the pairwise-view ablation. Spill
// streams live in the set's store under opts.OutDir/.spill and are
// partitioned by ranges of the group-key hash, and each partition's groups
// are walked in (hash, key bytes) order, so the groups, the keys and the
// merge rng's draws come in one order for every partition count.
// opts.Workers bounds the goroutines that scan samples in pass A and
// group partitions in pass B; the calling goroutine alone sums the mass,
// writes the spill runs and sinks and draws the merge rng, so the output
// is the same for every worker count.
// Peak memory is O(samples ÷ Partitions) per worker plus the streaming
// buffers, whatever the store and sinks hold and, under the ablation, the
// key index of each parent whose children are still to come. res receives
// the row, group and sample counts.
func (g *Generator) merge(set *ShardSet, opts StreamOptions, res *StreamResult, newSink func(*tableCtx) (rowSink, error)) error {
	ncols := g.Layout.NumCols()
	if set.NCols != ncols {
		return fmt.Errorf("core: shard set has %d columns, layout wants %d", set.NCols, ncols)
	}
	start := time.Now()
	P := opts.Partitions
	if P <= 0 {
		P = defaultPartitions
	}
	st := set.st
	spillDir := filepath.Join(opts.OutDir, ".spill")
	if err := st.mkdirAll(spillDir); err != nil {
		return fmt.Errorf("core: spill dir: %w", err)
	}
	defer st.removeAll(spillDir)

	tcs := g.tableCtxs(opts.GroupAndMerge)
	// Span records go to bucket idx / width: P buckets cover every sample
	// index, each holding O(samples ÷ P) samples' spans.
	width := max(int64((set.Total+P-1)/P), 1)
	m := &merger{
		g: g, set: set, opts: opts, spillDir: spillDir, width: width,
		pool:    make([][]byte, P), // spill block buffers, shared by every run
		rng:     rand.New(rand.NewSource(opts.Seed ^ 0x5a17)),
		newSink: newSink,
	}
	ncodes, rawSize := 0, 0
	for _, tc := range tcs {
		lay := newRecLayout(tc, opts.GroupAndMerge && tc.hasChildren)
		ncodes = max(ncodes, lay.nid+lay.nc+lay.npc)
		rawSize = max(rawSize, lay.rawSize)
	}
	// More workers than span buckets would find no chunk to key.
	workers := max(min(opts.workerCount(), int((int64(set.Total)+width-1)/width)), 1)
	for range workers {
		w := &scanWorker{rows: make([]int32, scanRows*ncols), codes: make([]int32, ncodes)}
		for i := range w.chunks {
			w.chunks[i] = scanChunk{recs: make([]byte, 0, scanRows*rawSize), parts: make([]int32, 0, scanRows)}
		}
		m.scans = append(m.scans, w)
		if err := w.rd.open(set); err != nil {
			m.close()
			return err
		}
	}
	defer m.close()

	mergeSpan := opts.Span.Child("merge")
	defer mergeSpan.End()
	mergeSpan.SetAttr("group_and_merge", opts.GroupAndMerge)
	mergeSpan.SetAttr("partitions", P)

	res.Rows = make(map[string]int, len(tcs))
	res.Groups = make(map[string]int, len(tcs))
	res.Samples = set.Total
	// An internal table's keys feed every child of the table; drop them
	// once the last child has read them.
	keys := make(map[string]*tableKeys)
	defer func() {
		for _, k := range keys {
			k.drop()
		}
	}()
	childLeft := make(map[string]int)
	for _, tc := range tcs {
		if tc.t.Parent != "" {
			childLeft[tc.t.Parent]++
		}
	}
	for _, tc := range tcs {
		tStart := time.Now()
		// One span per table (path merge/table, attr "name"), with the
		// two spill passes as A/B children — the per-pass self/total
		// attribution samreport renders for a scale run.
		tspan := mergeSpan.Child("table")
		tspan.SetAttr("name", tc.t.Name)
		out, err := m.streamTable(tc, keys[tc.t.Parent], tspan)
		tspan.End()
		if out.keys != nil {
			keys[tc.t.Name] = out.keys
		}
		if tc.t.Parent != "" {
			childLeft[tc.t.Parent]--
			if childLeft[tc.t.Parent] == 0 {
				keys[tc.t.Parent].drop()
				delete(keys, tc.t.Parent)
			}
		}
		if err != nil {
			return err
		}
		res.Rows[tc.t.Name] = out.rows
		res.Groups[tc.t.Name] = out.groups
		opts.Hooks.GenPhase(obs.GenPhase{
			Phase: "merge", Table: tc.t.Name, Tuples: out.rows,
			Groups: out.groups, Mass: out.mass, Wall: time.Since(tStart),
		})
	}
	res.MergeWall = time.Since(start)
	return nil
}

// merger is one merge's state, reused by all its tables: the spill block
// buffers, the scan workers with their shard readers and span buckets,
// the two grouping arenas, the held copy of a pending group, and the
// merge rng.
type merger struct {
	g        *Generator
	set      *ShardSet
	opts     StreamOptions
	spillDir string
	width    int64 // samples per span bucket
	pool     [][]byte
	scans    []*scanWorker
	arenas   [2]groupArena
	held     group // the pending group once its arena moves on
	rng      *rand.Rand
	newSink  func(*tableCtx) (rowSink, error)
}

// close releases the scan workers' shard streams.
func (m *merger) close() {
	for _, w := range m.scans {
		w.rd.close()
	}
}

// tableKeys is what an internal table's pass B leaves for its children:
// under Group-and-Merge the span run its pass A looks samples up in;
// under the ablation the keys it emitted, by content bins, that their
// pass B draws foreign keys from. The index is resident, O(table rows).
type tableKeys struct {
	spans     *spillRun
	byContent map[string][]int64 // packed content bins → keys
}

// drop releases the keys; a nil receiver holds none.
func (k *tableKeys) drop() {
	if k != nil && k.spans != nil {
		k.spans.drop()
	}
}

// tableOut is streamTable's account of one table.
type tableOut struct {
	rows, groups int
	mass         float64    // pass A's weight mass
	keys         *tableKeys // an internal table's keys for its children
}

// csvSink wraps the buffered CSV pipeline for one table.
type csvSink struct {
	*relation.CSVRowWriter
	f  *os.File
	bw *bufio.Writer
}

func newCSVSink(path string, t *relation.Table, withPK bool) (*csvSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("core: create csv: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	rw, err := relation.NewCSVRowWriter(bw, t, withPK)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &csvSink{CSVRowWriter: rw, f: f, bw: bw}, nil
}

func (s *csvSink) close() error {
	err := s.Flush()
	if ferr := s.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// streamTable materializes one table in two passes over spill streams:
//
//	A: stream the samples and spill each surviving one to the partition
//	   holding its group key's hash, summing the spilled weight mass. Under
//	   Group-and-Merge a child sample's spans are looked up in the
//	   parent's span buckets: an internal table keys a sample by its
//	   coarse identifier bins and its majority parent key; a leaf table
//	   spills one record per parent span, with weight w·frac, keyed by
//	   content bins and that span's key. Under the ablation every sample
//	   is keyed by its content bins and its parent's content bins.
//	B: group each partition, sort its groups by (hash, key bytes) and
//	   walk them through a systematic allocator of |T| keys (rows, for a
//	   leaf) over the pass A mass, decoding each row fresh. Under
//	   Group-and-Merge an internal table cell-walks each group's members
//	   into span records, bucketed by sample index, for its children.
//	   Under the ablation an internal table indexes its keys by content
//	   bins, and a child row's foreign key is uniform among the parent
//	   keys whose content matches the group's parent content (among all
//	   parent keys if none does).
//	   Summing the mass in pass A makes a leaf's mass lost with dropped
//	   parent groups drop out of the allocation's scale, as a rescale to
//	   |T| would.
//
// Pass A keys the samples on the scan workers (see scan) and pass B
// groups the next partition on a second goroutine (see groupAll); the
// sums, spill writes, allocator, rng draws, sink rows and cell walk all
// run on the calling goroutine, in the order of one sequential pass.
// A table whose pass A mass is zero is an error: no sample holds it.
// Each pass runs under its own child span of tspan and reports an
// obs.StreamPass event (records in/out, spill bytes, run counts). All of
// it is observational: the spill bytes, group order, and emitted rows are
// identical with observers on or off.
func (m *merger) streamTable(tc *tableCtx, parent *tableKeys, tspan *obs.Span) (tableOut, error) {
	g, opts := m.g, m.opts
	name := tc.t.Name
	st := m.set.st
	internal := tc.hasChildren
	gam := opts.GroupAndMerge
	withSpans := gam && internal
	viewFK := !gam && tc.t.Parent != ""
	P := len(m.pool)
	lay := newRecLayout(tc, withSpans)
	nc := lay.nc

	// Pass A: spill surviving samples to group-hash partitions. Partition
	// p holds the hashes h with ⌊h·P / 2⁶⁴⌋ = p, so the partitions, taken
	// in order, cover the hash space in order.
	aStart := time.Now()
	passA := tspan.Child("A")
	raw, err := newSpillRun(st, filepath.Join(m.spillDir, name+".raw"), m.pool, lay.rawSize)
	if err != nil {
		passA.End()
		return tableOut{}, err
	}
	defer raw.drop()
	ts := &tableScan{g: g, tc: tc, lay: lay, width: m.width, P: P}
	if gam && tc.t.Parent != "" {
		ts.spans = parent.spans
	}
	var spilled int64
	var mass float64
	err = m.scan(ts, func(c *scanChunk) error {
		for i, part := range c.parts {
			rec := c.recs[i*lay.rawSize : (i+1)*lay.rawSize]
			spilled++
			mass += getF64(rec)
			if err := raw.write(int(part), rec); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = raw.finish()
	}
	if err == nil && mass == 0 {
		err = fmt.Errorf("core: no full-outer-join sample contains relation %s", name)
	}
	passA.SetAttr("records_out", spilled)
	passA.SetAttr("mass", mass)
	passA.End()
	if err != nil {
		return tableOut{}, err
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "A", Table: name, Shard: -1,
		RecordsIn: int64(m.set.Total), RecordsOut: spilled,
		Runs:         P,
		BytesWritten: spilled * int64(lay.rawSize),
		Wall:         time.Since(aStart),
	})

	// Pass B: group each partition, sort its groups by (hash, key bytes)
	// and allocate |T| keys across the groups in that order. Groups resolve
	// with a one-group delay so the final group absorbs the allocator's
	// drift remainder.
	bStart := time.Now()
	passB := tspan.Child("B")
	defer passB.End()
	sink, err := m.newSink(tc)
	if err != nil {
		return tableOut{}, err
	}
	var keys *tableKeys
	switch {
	case withSpans:
		spans, err := newSpillRun(st, filepath.Join(m.spillDir, name+".span"), m.pool, spanRecSize)
		if err != nil {
			sink.close()
			return tableOut{}, err
		}
		keys = &tableKeys{spans: spans}
	case internal:
		keys = &tableKeys{byContent: make(map[string][]int64)}
	}
	alloc := newSysAlloc(mass, g.Sizes[name])
	parentRows := g.Sizes[tc.t.Parent]
	rng := m.rng
	var rows, spanRecs int64
	groups := 0
	vals := make([]int32, nc)
	var spanBuf, sigBuf []byte
	emit := func(grp group, count int) error {
		if count == 0 {
			return nil
		}
		var fks []int64 // the ablation's candidate parent keys
		if viewFK {
			fks = parent.byContent[string(putI32s(sigBuf[:0], grp.codes[nc:]))]
		}
		base := rows
		rows += int64(count)
		for j := 0; j < count; j++ {
			for ci := range vals {
				vals[ci] = g.Disc[tc.ctIdx[ci]].SampleIn(rng, int(grp.codes[ci]))
			}
			fk := grp.pk
			switch {
			case len(fks) > 0:
				fk = fks[rng.Intn(len(fks))]
			case viewFK:
				fk = int64(rng.Intn(parentRows))
			}
			if err := sink.WriteRow(base+int64(j), vals, fk); err != nil {
				return err
			}
		}
		switch {
		case withSpans:
			return cellSpans(grp.members, grp.gw, count, func(mr memberRec, c int, frac float64) error {
				spanBuf = putU64(spanBuf[:0], uint64(mr.idx))
				spanBuf = putU64(spanBuf, uint64(base+int64(c)))
				spanBuf = putF64(spanBuf, frac)
				spanRecs++
				return keys.spans.write(int(mr.idx/m.width), spanBuf)
			})
		case internal:
			sigBuf = putI32s(sigBuf[:0], grp.codes[:nc])
			ks := keys.byContent[string(sigBuf)]
			for j := 0; j < count; j++ {
				ks = append(ks, base+int64(j))
			}
			keys.byContent[string(sigBuf)] = ks
		}
		return nil
	}
	var pending group
	var pendingCount int
	havePending := false
	err = m.groupAll(raw, lay, func(a *groupArena) error {
		groups += len(a.order)
		for _, gi := range a.order {
			grp := a.group(gi)
			count := alloc.next(grp.gw)
			if havePending {
				if err := emit(pending, pendingCount); err != nil {
					return err
				}
			}
			pending, pendingCount, havePending = grp, count, true
		}
		if len(a.order) > 0 {
			// The arena moves on to a later partition: hold a copy of
			// the pending group until the next group resolves it.
			m.held.codes = append(m.held.codes[:0], pending.codes...)
			m.held.members = append(m.held.members[:0], pending.members...)
			pending.codes, pending.members = m.held.codes, m.held.members
		}
		return nil
	})
	if err == nil && havePending {
		err = emit(pending, pendingCount+alloc.leftover())
	}
	if cerr := sink.close(); err == nil {
		err = cerr
	}
	if withSpans {
		if cerr := keys.spans.finish(); err == nil {
			err = cerr
		}
	}
	passB.SetAttr("groups", groups)
	passB.SetAttr("rows", rows)
	if err != nil {
		keys.drop()
		return tableOut{}, err
	}
	spanRuns := 0
	if withSpans {
		spanRuns = P // the span buckets
	}
	opts.Hooks.StreamPass(obs.StreamPass{
		Pass: "B", Table: name, Shard: -1,
		RecordsIn: spilled, RecordsOut: rows,
		Runs:         spanRuns,
		BytesRead:    spilled * int64(lay.rawSize),
		BytesWritten: spanRecs * spanRecSize,
		Wall:         time.Since(bStart),
	})
	return tableOut{rows: int(rows), groups: groups, mass: mass, keys: keys}, nil
}
