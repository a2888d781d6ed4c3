package core

import (
	"fmt"
	"io"
	"math/bits"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// Pass A's scan: the merge reads each table's samples back off the shards
// and keys every surviving sample into spill records. The samples are cut
// into chunks that never straddle a span bucket, and the buckets are dealt
// round-robin to the scan workers, so each worker loads the parent span
// buckets of its own chunks only, once each. The calling goroutine takes
// the chunks in row order and alone sums their mass and writes them to
// the spill run: the spill bytes and the float sums are those of one
// sequential scan.

// scanRows is the most samples one scan chunk holds. It bounds each scan
// worker's read and record buffers; the output does not depend on it.
const scanRows = 2048

// shardReader reads sample rows of a shard set by global index. Each scan
// worker holds its own, with its own read buffer; the shard streams are
// opened once per merge and may be read concurrently.
type shardReader struct {
	set   *ShardSet
	files []streamReader // per shard
	raw   []byte
}

// read fills dst with the rows from lo on, len(dst)/NCols of them. A
// shard that ends mid-row, holds fewer rows than its range or more is an
// error: each read that reaches a shard's end also checks that nothing
// follows.
func (r *shardReader) read(lo int64, dst []int32) error {
	s := r.set
	ncols := s.NCols
	rowBytes := 4 * int64(ncols)
	S := len(s.Paths)
	for len(dst) > 0 {
		si := sort.Search(S, func(i int) bool {
			_, hi := shardRange(s.Total, S, i)
			return int64(hi) > lo
		})
		if si == S {
			return fmt.Errorf("core: row %d lies past the shard set's %d rows", lo, s.Total)
		}
		slo, shi := shardRange(s.Total, S, si)
		n := min(int64(len(dst)/ncols), int64(shi)-lo)
		want := n * rowBytes
		atEnd := lo+n == int64(shi)
		m := want
		if atEnd {
			m++ // one byte past the shard's rows must not exist
		}
		r.raw = slices.Grow(r.raw[:0], int(m))[:m]
		off := (lo - int64(slo)) * rowBytes
		got, err := r.files[si].ReadAt(r.raw, off)
		name := filepath.Base(s.Paths[si])
		switch {
		case int64(got) > want:
			return fmt.Errorf("core: shard %s holds more than its %d rows", name, shi-slo)
		case int64(got) < want && err != io.EOF:
			return fmt.Errorf("core: read shard %s: %w", name, err)
		case int64(got) < want && (off+int64(got))%rowBytes != 0:
			return fmt.Errorf("core: shard %s ends mid-row (%d trailing bytes)", name, (off+int64(got))%rowBytes)
		case int64(got) < want:
			return fmt.Errorf("core: shard %s replayed %d rows, expected %d", name, (off+int64(got))/rowBytes, shi-slo)
		}
		k := int(n) * ncols
		getI32s(r.raw[:want], dst[:k])
		dst, lo = dst[k:], lo+n
	}
	return nil
}

// open opens every shard of the set for reading.
func (r *shardReader) open(set *ShardSet) error {
	r.set = set
	r.files = make([]streamReader, len(set.Paths))
	for i, p := range set.Paths {
		f, err := set.st.open(p)
		if err != nil {
			r.close()
			return err
		}
		r.files[i] = f
	}
	return nil
}

func (r *shardReader) close() {
	for _, f := range r.files {
		if f != nil {
			f.Close()
		}
	}
	r.files = nil
}

// scanWorker is one scan worker's state, kept for all of a merge's
// tables: its shard reader, row buffer, span bucket and the two chunks it
// fills in turn.
type scanWorker struct {
	rd     shardReader
	rows   []int32
	codes  []int32
	bucket spanBucket
	loaded int // the span bucket held, -1 for none
	chunks [2]scanChunk
}

// scanChunk is one chunk's spill records, back to back, and the partition
// of each; err reports a chunk that could not be keyed.
type scanChunk struct {
	recs  []byte
	parts []int32
	err   error
}

// recLayout is the shape of one table's raw spill records:
//
//	w f64 | pk i64 | coarse ×nid | content ×nc | parent content ×npc i32 [| idx u64]
//
// The group key runs from byte 8 to keyEnd: the parent key and the
// coarse identifier bins for an internal Group-and-Merge table, which
// also records each sample's index for its cell walk; the parent key and
// every code for any other table.
type recLayout struct {
	nid, nc, npc    int
	keyEnd, rawSize int
	withSpans       bool
}

func newRecLayout(tc *tableCtx, withSpans bool) recLayout {
	l := recLayout{nid: len(tc.idCols), nc: len(tc.ctIdx), npc: len(tc.parentCt), withSpans: withSpans}
	l.keyEnd = 16 + 4*(l.nid+l.nc+l.npc)
	l.rawSize = l.keyEnd
	if withSpans {
		l.keyEnd, l.rawSize = 16+4*l.nid, l.rawSize+8
	}
	return l
}

// codeOff is the byte offset of a record's content codes.
func (l recLayout) codeOff() int { return 16 + 4*l.nid }

// tableScan is pass A's read-only view of one table, shared by the scan
// workers.
type tableScan struct {
	g     *Generator
	tc    *tableCtx
	lay   recLayout
	spans *spillRun // the parent's span run, when samples take its keys
	width int64     // samples per span bucket
	P     int
}

// key appends the spill records of samples lo … lo+n-1 to c, in row
// order.
func (ts *tableScan) key(w *scanWorker, lo int64, n int, c *scanChunk) error {
	c.recs, c.parts, c.err = c.recs[:0], c.parts[:0], nil
	ncols := ts.g.Layout.NumCols()
	rows := w.rows[:n*ncols]
	if err := w.rd.read(lo, rows); err != nil {
		return err
	}
	lay, tc := ts.lay, ts.tc
	codes := w.codes[:lay.nid+lay.nc+lay.npc]
	spill := func(idx int64, wt float64, pk int64) {
		at := len(c.recs)
		c.recs = putF64(c.recs, wt)
		c.recs = putU64(c.recs, uint64(pk))
		c.recs = putI32s(c.recs, codes)
		if lay.withSpans {
			c.recs = putU64(c.recs, uint64(idx))
		}
		part, _ := bits.Mul64(keyHash(c.recs[at+8:at+lay.keyEnd]), uint64(ts.P))
		c.parts = append(c.parts, int32(part))
	}
	for i := 0; i < n; i++ {
		idx, row := lo+int64(i), rows[i*ncols:(i+1)*ncols]
		wi := ts.g.sampleWeight(tc, row)
		if wi <= 0 {
			continue // absent from the table
		}
		var spans []keySpan
		if ts.spans != nil {
			if spans = w.bucket.spansOf(idx); len(spans) == 0 {
				continue // its parent is absent: inconsistent sample
			}
		}
		ts.g.groupBins(row, tc.idCols, codes[:lay.nid])
		for ci, li := range tc.ctIdx {
			codes[lay.nid+ci] = row[li]
		}
		for ci, li := range tc.parentCt {
			codes[lay.nid+lay.nc+ci] = row[li]
		}
		switch {
		case spans == nil:
			spill(idx, wi, 0)
		case tc.hasChildren:
			spill(idx, wi, majorityKey(spans))
		default:
			for _, sp := range spans {
				spill(idx, wi*sp.frac, sp.key)
			}
		}
	}
	return nil
}

// loadBucket makes bucket b of the parent's span run the worker's, when
// the table reads one.
func (ts *tableScan) loadBucket(w *scanWorker, b int) error {
	if ts.spans == nil || w.loaded == b {
		return nil
	}
	w.loaded = -1
	if err := w.bucket.load(ts.spans, b, int64(b)*ts.width, int(ts.width)); err != nil {
		return err
	}
	w.loaded = b
	return nil
}

// bucketRows returns the rows of span bucket b: [b·width, (b+1)·width)
// cut to the set's total.
func (ts *tableScan) bucketRows(b int, total int64) (lo, hi int64) {
	return int64(b) * ts.width, min(int64(b+1)*ts.width, total)
}

// scan runs pass A's scan of one table on up to len(m.scans) goroutines
// and hands its chunks to consume on the calling goroutine, in row order.
// At one worker, or one bucket, it starts no goroutine. An error, from a
// worker or from consume, stops the workers and returns once they have
// all exited.
func (m *merger) scan(ts *tableScan, consume func(*scanChunk) error) error {
	total := int64(m.set.Total)
	nb := int((total + ts.width - 1) / ts.width)
	for _, w := range m.scans {
		w.loaded = -1 // a new table reads another parent's buckets
	}
	W := min(len(m.scans), nb)
	if W <= 1 {
		w := m.scans[0]
		c := &w.chunks[0]
		for b := 0; b < nb; b++ {
			if err := ts.loadBucket(w, b); err != nil {
				return err
			}
			for lo, hi := ts.bucketRows(b, total); lo < hi; lo += scanRows {
				if err := ts.key(w, lo, int(min(scanRows, hi-lo)), c); err != nil {
					return err
				}
				if err := consume(c); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Worker wi keys buckets wi, wi+W, … into its two chunks in turn, so
	// the calling goroutine finds bucket b's chunks, in order, on
	// outs[b%W].
	done := make(chan struct{})
	outs := make([]chan *scanChunk, W)
	frees := make([]chan *scanChunk, W)
	var wg sync.WaitGroup
	for wi := range W {
		w := m.scans[wi]
		out := make(chan *scanChunk, len(w.chunks))
		free := make(chan *scanChunk, len(w.chunks))
		for i := range w.chunks {
			free <- &w.chunks[i]
		}
		outs[wi], frees[wi] = out, free
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := wi; b < nb; b += W {
				loadErr := ts.loadBucket(w, b)
				for lo, hi := ts.bucketRows(b, total); lo < hi; lo += scanRows {
					var c *scanChunk
					select {
					case c = <-free:
					case <-done:
						return
					}
					c.err = loadErr
					if c.err == nil {
						c.err = ts.key(w, lo, int(min(scanRows, hi-lo)), c)
					}
					out <- c // never blocks: out holds every chunk
					if c.err != nil {
						return
					}
				}
			}
		}()
	}
	err := func() error {
		for b := 0; b < nb; b++ {
			for lo, hi := ts.bucketRows(b, total); lo < hi; lo += scanRows {
				c := <-outs[b%W]
				err := c.err
				if err == nil {
					err = consume(c)
				}
				frees[b%W] <- c
				if err != nil {
					return err
				}
			}
		}
		return nil
	}()
	close(done)
	wg.Wait()
	return err
}
