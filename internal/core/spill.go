package core

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
)

// Spill building blocks for the external-memory Group-and-Merge (see
// MaterializeStream). The merge never holds more than one hash partition
// of one table's records resident: samples are streamed off the shards,
// grouped records spill to P partition streams in the set's store, and
// the key allocation streams back over per-partition group runs. All
// spill records are fixed-size little-endian binary — no framing, no
// varints — so partition streams are plain arrays that readers chunk
// through.

// spillPartition hashes a group key to one of p partitions (FNV-1a over
// the key bytes). The hash — and therefore the (partition,
// first-appearance) group order every downstream pass inherits — depends
// only on the key bytes and p, keeping the merge deterministic for a fixed
// Partitions setting.
func spillPartition(key []byte, p int) int {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int(h % uint64(p))
}

// packKey appends the group-key encoding of codes plus an already-assigned
// parent key to dst.
func packKey(dst []byte, codes []int32, pk int64) []byte {
	for _, v := range codes {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	for s := 0; s < 64; s += 8 {
		dst = append(dst, byte(pk>>s))
	}
	return dst
}

// partWriter fans fixed-size records out to one stream per partition.
type partWriter struct {
	st    store
	ws    []io.WriteCloser
	paths []string
}

// newPartWriter creates p partition streams named prefix-NNN under dir.
func newPartWriter(st store, dir, prefix string, p int) (*partWriter, error) {
	w := &partWriter{st: st, ws: make([]io.WriteCloser, p), paths: make([]string, p)}
	for i := 0; i < p; i++ {
		w.paths[i] = spillPath(dir, prefix, i)
		f, err := st.create(w.paths[i])
		if err != nil {
			w.cleanup()
			return nil, fmt.Errorf("core: create spill partition: %w", err)
		}
		w.ws[i] = f
	}
	return w, nil
}

func (w *partWriter) write(part int, rec []byte) error {
	if _, err := w.ws[part].Write(rec); err != nil {
		return fmt.Errorf("core: write spill record: %w", err)
	}
	return nil
}

// close flushes and closes every partition stream, reporting the first
// error.
func (w *partWriter) close() error {
	var first error
	for i, f := range w.ws {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = fmt.Errorf("core: close spill partition: %w", err)
		}
		w.ws[i] = nil
	}
	return first
}

// cleanup closes and removes all partition streams (error path).
func (w *partWriter) cleanup() {
	for i, f := range w.ws {
		if f != nil {
			f.Close()
			w.ws[i] = nil
		}
		if w.paths[i] != "" {
			w.st.remove(w.paths[i])
		}
	}
}

// readRecords streams the fixed-size records of one partition stream,
// invoking fn with each record's bytes (valid only during the call).
func readRecords(st store, path string, size int, fn func(rec []byte) error) error {
	f, err := st.open(path)
	if err != nil {
		return fmt.Errorf("core: open spill partition: %w", err)
	}
	defer f.Close()
	rec := make([]byte, size)
	for {
		_, err := io.ReadFull(f, rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: read spill partition %s: %w", filepath.Base(path), err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Record encode/decode helpers. Layouts (all little-endian):
//
//	raw (internal table):  w f64 | pk i64 | coarse ×nid i32 | content ×nc i32 | idx u64
//	raw (leaf table):      w f64 | pk i64 | content ×nc i32
//	group:                 gw f64 | pk i64 | members u32 | content ×nc i32,
//	                       then its member records
//	member:                idx u64 | w f64
//	span:                  idx u64 | key i64 | frac f64

// memberRecSize is the byte size of a member record.
const memberRecSize = 16

// groupHeadSize is the byte size of a group record before its members.
func groupHeadSize(nc int) int { return 20 + 4*nc }

// writeGroupRun writes one partition's groups, in order, as a group run.
func writeGroupRun(st store, path string, groups []*group) error {
	f, err := st.create(path)
	if err != nil {
		return fmt.Errorf("core: create group run: %w", err)
	}
	var buf []byte
	for _, grp := range groups {
		buf = putF64(buf[:0], grp.gw)
		buf = putU64(buf, uint64(grp.pk))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(grp.members)))
		buf = putI32s(buf, grp.content)
		for _, m := range grp.members {
			buf = putU64(buf, uint64(m.idx))
			buf = putF64(buf, m.w)
		}
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("core: write group run: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close group run: %w", err)
	}
	return nil
}

// readGroupRun streams a group run back in order, invoking fn with each
// group. Groups are freshly allocated, so fn may keep them. Members are
// read into a reused scratch slice and copied out once complete, so a
// corrupt header's member count allocates nothing: memory grows only with
// the members the run actually holds, and a short run fails the read.
func readGroupRun(st store, path string, nc int, fn func(*group) error) error {
	f, err := st.open(path)
	if err != nil {
		return fmt.Errorf("core: open group run: %w", err)
	}
	defer f.Close()
	head := make([]byte, groupHeadSize(nc))
	var mem [memberRecSize]byte
	var members []memberRec
	for {
		_, err := io.ReadFull(f, head)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: read group run: %w", err)
		}
		members = members[:0]
		for n := binary.LittleEndian.Uint32(head[16:]); n > 0; n-- {
			if _, err := io.ReadFull(f, mem[:]); err != nil {
				return fmt.Errorf("core: read group run: %w", err)
			}
			members = append(members, memberRec{idx: int64(getU64(mem[:])), w: getF64(mem[8:])})
		}
		grp := &group{
			gw:      getF64(head),
			pk:      int64(getU64(head[8:])),
			content: make([]int32, nc),
			members: slices.Clone(members),
		}
		getI32s(head[20:], grp.content)
		if err := fn(grp); err != nil {
			return err
		}
	}
}

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

// sysAlloc is the streaming form of systematicCounts: groups arrive one at
// a time (in the same order a counts vector would be walked) and next
// returns each group's pointer count. Float drift can leave trailing
// pointers unassigned exactly as in the batch version; callers resolve
// groups with a one-group delay and fold leftover() into the final
// positive group, reproducing the batch semantics without knowing the
// group count in advance.
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

// spanRec is one decoded span-run record: sample idx's membership fraction
// in an assigned key.
type spanRec struct {
	idx  int64
	key  int64
	frac float64
}

const spanRecSize = 24

// writeSpanRun sorts one partition's span records by (sample index, key)
// — the cell walk already emits each sample's spans in ascending key
// order, so this is the order a stable sort by index gives — and writes
// them as a sorted run.
func writeSpanRun(st store, path string, recs []spanRec) error {
	slices.SortFunc(recs, func(a, b spanRec) int {
		if c := cmp.Compare(a.idx, b.idx); c != 0 {
			return c
		}
		return cmp.Compare(a.key, b.key)
	})
	f, err := st.create(path)
	if err != nil {
		return fmt.Errorf("core: create span run: %w", err)
	}
	buf := make([]byte, 0, spanRecSize)
	for _, r := range recs {
		buf = putU64(buf[:0], uint64(r.idx))
		buf = putU64(buf, uint64(r.key))
		buf = putF64(buf, r.frac)
		if _, err := f.Write(buf); err != nil {
			f.Close()
			return fmt.Errorf("core: write span run: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("core: close span run: %w", err)
	}
	return nil
}

// spanSource is one sorted span run being merged.
type spanSource struct {
	r   io.ReadCloser
	cur spanRec
}

func (s *spanSource) advance() (bool, error) {
	var rec [spanRecSize]byte
	_, err := io.ReadFull(s.r, rec[:])
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("core: read span run: %w", err)
	}
	s.cur = spanRec{
		idx:  int64(getU64(rec[:])),
		key:  int64(getU64(rec[8:])),
		frac: getF64(rec[16:]),
	}
	return true, nil
}

// spanHeap orders sources by current sample idx. Each idx lives in exactly
// one run (a sample belongs to one group, and a group to one partition),
// so ties never occur and within-sample span order is the run's own.
type spanHeap []*spanSource

func (h spanHeap) Len() int            { return len(h) }
func (h spanHeap) Less(a, b int) bool  { return h[a].cur.idx < h[b].cur.idx }
func (h spanHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *spanHeap) Push(x interface{}) { *h = append(*h, x.(*spanSource)) }
func (h *spanHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// spanMerge streams a table's per-partition span runs back as one
// idx-ascending sequence, the shape the child table's grouping pass
// merge-joins against its own idx-ascending sample stream.
type spanMerge struct {
	h spanHeap
}

// openSpanMerge opens the span runs prefix-NNN of all p partitions.
// Runs that are empty contribute nothing.
func openSpanMerge(st store, dir, prefix string, p int) (*spanMerge, error) {
	m := &spanMerge{}
	for i := 0; i < p; i++ {
		f, err := st.open(spillPath(dir, prefix, i))
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("core: open span run: %w", err)
		}
		src := &spanSource{r: f}
		ok, err := src.advance()
		if err != nil || !ok {
			f.Close()
		}
		if err != nil {
			m.Close()
			return nil, err
		}
		if !ok {
			continue
		}
		m.h = append(m.h, src)
	}
	heap.Init(&m.h)
	return m, nil
}

// fanIn reports how many non-empty runs the merge is currently drawing
// from — the heap fan-in telemetry of the pass that consumes it. Nil
// merges (root tables have no parent) report 0.
func (m *spanMerge) fanIn() int {
	if m == nil {
		return 0
	}
	return len(m.h)
}

// spansFor appends sample idx's spans to dst (empty when the sample
// earned none). Callers must ask for strictly increasing idx.
func (m *spanMerge) spansFor(idx int64, dst []keySpan) ([]keySpan, error) {
	for len(m.h) > 0 && m.h[0].cur.idx == idx {
		src := m.h[0]
		dst = append(dst, keySpan{key: src.cur.key, frac: src.cur.frac})
		ok, err := src.advance()
		if err != nil {
			return dst, err
		}
		if ok {
			heap.Fix(&m.h, 0)
		} else {
			src.r.Close()
			heap.Pop(&m.h)
		}
	}
	return dst, nil
}

// Close releases any remaining runs.
func (m *spanMerge) Close() {
	for _, src := range m.h {
		src.r.Close()
	}
	m.h = nil
}
