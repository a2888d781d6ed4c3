package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
)

// Spill building blocks for the external-memory Group-and-Merge (see
// MaterializeStream). The merge never holds more than two hash
// partitions of one table's records (the one being emitted and the next,
// being grouped), or one bucket of its parent's span records per scan
// worker, resident: samples are streamed off the shards, keyed records
// spill to the P partitions of one spill run in the set's store, and each
// partition is grouped and allocated keys in order. All
// spill records are fixed-size little-endian binary — no framing, no
// varints — so a run's blocks are plain arrays that readers decode in
// place.

// keyHash is FNV-1a over a group key's bytes. Pass A puts a record in the
// partition that holds its key's hash range, and pass B walks each
// partition's groups in (hash, key bytes) order, so the merge walks every
// group in one global order whatever the partition count.
func keyHash(key []byte) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// spillRun is one spill pass's stream: P partitions (raw records) or
// buckets (span records) of fixed-size records, all in one store stream.
// Each partition fills its own block buffer of storeBufSize bytes at most,
// always whole records; a full block is appended to the stream and
// recorded in the partition's block list. Reading a partition reads its
// blocks, in the order they were appended, into the reader's reused
// buffer and hands out the records in place. The records of a partition
// therefore come back in write order, exactly as from a stream of their
// own. A finished run may be read by several goroutines at once, each
// through its own buffer.
type spillRun struct {
	st     store
	name   string
	size   int            // record bytes
	blocks [][]spillBlock // per partition, in stream order

	w    io.WriteCloser // open while writing
	off  int64          // stream bytes written
	bufs [][]byte       // per-partition block buffers while writing

	r streamReader // opened by finish; safe for concurrent reads
}

// spillBlock is one block of a spill run: n bytes at stream offset off.
type spillBlock struct {
	off int64
	n   int
}

// newSpillRun creates the stream name for len(pool) partitions of
// size-byte records. pool holds the partitions' block buffers: a merge
// writes one run at a time, so all its runs share one set, which the
// first run allocates.
func newSpillRun(st store, name string, pool [][]byte, size int) (*spillRun, error) {
	w, err := st.create(name)
	if err != nil {
		return nil, err
	}
	block := max(storeBufSize/size, 1) * size
	r := &spillRun{st: st, name: name, size: size, blocks: make([][]spillBlock, len(pool)), w: w, bufs: make([][]byte, len(pool))}
	for i := range pool {
		if cap(pool[i]) < block {
			pool[i] = make([]byte, 0, max(block, storeBufSize))
		}
		r.bufs[i] = pool[i][:0:block]
	}
	return r, nil
}

// write appends one record to partition part.
func (r *spillRun) write(part int, rec []byte) error {
	b := append(r.bufs[part], rec...)
	r.bufs[part] = b
	if len(b) == cap(b) {
		return r.flush(part)
	}
	return nil
}

// flush appends partition part's buffered block to the stream.
func (r *spillRun) flush(part int) error {
	b := r.bufs[part]
	if len(b) == 0 {
		return nil
	}
	if _, err := r.w.Write(b); err != nil {
		return fmt.Errorf("core: write spill block: %w", err)
	}
	r.blocks[part] = append(r.blocks[part], spillBlock{off: r.off, n: len(b)})
	r.off += int64(len(b))
	r.bufs[part] = b[:0]
	return nil
}

// finish flushes every partition's last block, in partition order,
// closes the stream for writing, releasing the block buffers to the next
// run, and opens it for reading.
func (r *spillRun) finish() error {
	var err error
	for part := range r.bufs {
		if err = r.flush(part); err != nil {
			break
		}
	}
	if cerr := r.w.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("core: close spill run: %w", cerr)
	}
	r.w, r.bufs = nil, nil
	if err == nil {
		r.r, err = r.st.open(r.name)
	}
	return err
}

// count returns the number of records in partition part.
func (r *spillRun) count(part int) int {
	n := 0
	for _, b := range r.blocks[part] {
		n += b.n
	}
	return n / r.size
}

// records streams the records of partition part of a finished run,
// reading each block into *buf, which it grows as needed, and invoking fn
// with each record's bytes (valid only during the call). A block that is
// not whole records, or that runs past the end of the stream, is an
// error.
func (r *spillRun) records(part int, buf *[]byte, fn func(rec []byte) error) error {
	for _, b := range r.blocks[part] {
		if b.n%r.size != 0 {
			return fmt.Errorf("core: spill run %s: %d-byte block at %d is not whole %d-byte records", filepath.Base(r.name), b.n, b.off, r.size)
		}
		blk := slices.Grow((*buf)[:0], b.n)[:b.n]
		*buf = blk
		if n, err := r.r.ReadAt(blk, b.off); n < b.n {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("core: read spill run %s: block at %d: %w", filepath.Base(r.name), b.off, err)
		}
		for i := 0; i < b.n; i += r.size {
			if err := fn(blk[i : i+r.size]); err != nil {
				return err
			}
		}
	}
	return nil
}

// drop closes the run and removes its stream. It may be called more than
// once, and on a run that failed mid-write.
func (r *spillRun) drop() {
	if r.w != nil {
		r.w.Close()
		r.w = nil
	}
	if r.r != nil {
		r.r.Close()
		r.r = nil
	}
	if r.name != "" {
		r.st.remove(r.name)
		r.name = ""
	}
	r.bufs = nil
}

// Record encode/decode helpers. Layouts (all little-endian):
//
//	raw (internal table):  w f64 | pk i64 | coarse ×nid i32 | content ×nc i32 | idx u64
//	raw (leaf table):      w f64 | pk i64 | content ×nc i32
//	span:                  idx u64 | key i64 | frac f64

func putU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func putF64(dst []byte, v float64) []byte {
	return putU64(dst, math.Float64bits(v))
}

func putI32s(dst []byte, vs []int32) []byte {
	for _, v := range vs {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

func getU64(b []byte) uint64  { return binary.LittleEndian.Uint64(b) }
func getF64(b []byte) float64 { return math.Float64frombits(getU64(b)) }
func getI32(b []byte) int32   { return int32(binary.LittleEndian.Uint32(b)) }
func getI32s(b []byte, dst []int32) {
	for i := range dst {
		dst[i] = getI32(b[i*4:])
	}
}

// sysAlloc allocates total units over the merge groups' weights by
// systematic (stratified) resampling: pointers at (j+½)·(Σw/total) on the
// cumulative weight axis, one unit per pointer. Unlike largest-remainder
// rounding, which starves regions whose mass is splintered over many
// small groups, it is unbiased per region: a run of groups with combined
// weight W receives W·total/Σw units in expectation however finely it is
// divided. Groups arrive one at a time and next returns each group's
// pointer count. Float drift can leave trailing pointers unassigned;
// callers resolve groups with a one-group delay and fold leftover() into
// the final positive group, without knowing the group count in advance.
type sysAlloc struct {
	spacing float64
	total   int
	ptr     int
	acc     float64
}

func newSysAlloc(sum float64, total int) *sysAlloc {
	a := &sysAlloc{total: total}
	if sum > 0 && total > 0 {
		a.spacing = sum / float64(total)
	} else {
		a.ptr = total // nothing to allocate
	}
	return a
}

// next advances the allocator past one group of weight gw and returns its
// pointer count.
func (a *sysAlloc) next(gw float64) int {
	if gw <= 0 || a.spacing == 0 {
		return 0
	}
	end := a.acc + gw
	n := 0
	for a.ptr < a.total && (float64(a.ptr)+0.5)*a.spacing < end {
		n++
		a.ptr++
	}
	a.acc = end
	return n
}

// leftover returns the pointers still unassigned after the last group —
// the drift remainder the final positive group absorbs.
func (a *sysAlloc) leftover() int {
	n := a.total - a.ptr
	a.ptr = a.total
	return n
}

// spanRecSize is the byte size of a span record.
const spanRecSize = 24

// spanBucket is one span bucket loaded for a child table's pass A: the
// key spans of samples lo … lo+n-1, ordered by sample index. Each scan
// worker of a merge keeps one for all the merge's tables.
type spanBucket struct {
	lo    int64
	start []int // sample lo+i's spans are spans[start[i]:start[i+1]]
	spans []keySpan
	recs  []spanRec // the records in write order; reused across loads
	buf   []byte    // the span run's read block buffer
}

// spanRec is one decoded span record: sample idx's membership fraction in
// an assigned key.
type spanRec struct {
	idx  int64
	key  int64
	frac float64
}

// load reads bucket bucket of the span run, which may only hold records
// of samples lo … lo+n-1, and orders it by sample index with a stable
// counting sort. A sample's spans keep their write order, which is
// ascending key: one member's cell walk writes all of a sample's spans
// back to back. A bucket that holds a record outside its index range is
// an error.
func (b *spanBucket) load(run *spillRun, bucket int, lo int64, n int) error {
	b.lo, b.recs = lo, b.recs[:0]
	b.start = slices.Grow(b.start[:0], n+1)[:n+1]
	clear(b.start)
	err := run.records(bucket, &b.buf, func(rec []byte) error {
		r := spanRec{idx: int64(getU64(rec)), key: int64(getU64(rec[8:])), frac: getF64(rec[16:])}
		if r.idx < lo || r.idx-lo >= int64(n) {
			return fmt.Errorf("core: span bucket %d of %s holds sample %d outside [%d, %d)", bucket, filepath.Base(run.name), r.idx, lo, lo+int64(n))
		}
		b.start[r.idx-lo+1]++
		b.recs = append(b.recs, r)
		return nil
	})
	if err != nil {
		return err
	}
	// start[i+1] counts sample i; the prefix sum turns start[i] into the
	// first slot of sample i, and placing each record advances it to the
	// first slot of sample i+1, so a shift by one restores the offsets.
	for i := 1; i <= n; i++ {
		b.start[i] += b.start[i-1]
	}
	b.spans = slices.Grow(b.spans[:0], len(b.recs))[:len(b.recs)]
	for _, r := range b.recs {
		i := r.idx - lo
		b.spans[b.start[i]] = keySpan{key: r.key, frac: r.frac}
		b.start[i]++
	}
	copy(b.start[1:], b.start[:n])
	b.start[0] = 0
	return nil
}

// spansOf returns sample idx's spans, which must lie in the loaded range.
func (b *spanBucket) spansOf(idx int64) []keySpan {
	i := idx - b.lo
	return b.spans[b.start[i]:b.start[i+1]]
}
