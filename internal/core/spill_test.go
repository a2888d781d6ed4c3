package core

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// fuzzRun stores data as a spill run of parts partitions of size-byte
// records. The blocks lie back to back from offset 0, block i cuts[i]+1
// bytes long and in partition i%parts; when the cuts end short of the
// data, one last block holds the rest. It reports whether the reader must
// fail: some block is not whole records or runs past the end of data.
func fuzzRun(t *testing.T, parts, size int, cuts, data []byte) (*spillRun, bool) {
	st := memStream(t, "run", data)
	r, err := st.open("run")
	if err != nil {
		t.Fatal(err)
	}
	run := &spillRun{st: st, name: "run", size: size, blocks: make([][]spillBlock, parts), r: r}
	var off int64
	bad := false
	add := func(i, n int) {
		run.blocks[i%parts] = append(run.blocks[i%parts], spillBlock{off: off, n: n})
		bad = bad || n%size != 0 || off+int64(n) > int64(len(data))
		off += int64(n)
	}
	for i, c := range cuts {
		add(i, int(c)+1)
	}
	if off < int64(len(data)) {
		add(len(cuts), len(data)-int(off))
	}
	return run, bad
}

// runBytes returns the bytes of the run's blocks within data, partition
// by partition, each partition's blocks in list order: what the reader
// must replay.
func runBytes(run *spillRun, data []byte) []byte {
	var out []byte
	for _, bs := range run.blocks {
		for _, b := range bs {
			out = append(out, data[b.off:b.off+int64(b.n)]...)
		}
	}
	return out
}

// FuzzRawRecords checks the spill-run reader over fuzzed block
// boundaries: reading both partitions of a run of size-byte records (size
// taken mod 64, at least 1) fails exactly when a block is not whole
// records or runs past the end of the stream, and otherwise hands out
// records whose concatenation is the blocks' bytes — for blocks that tile
// the stream, a permutation of it by partition.
func FuzzRawRecords(f *testing.F) {
	f.Add(uint8(1), []byte{}, []byte{7})
	f.Add(uint8(4), []byte{7, 3}, bytes.Repeat([]byte{1, 2, 3, 4}, 5))

	f.Fuzz(func(t *testing.T, size uint8, cuts, data []byte) {
		n := max(int(size%64), 1)
		run, bad := fuzzRun(t, 2, n, cuts, data)
		defer run.drop()
		var out, buf []byte
		var err error
		for part := 0; part < 2 && err == nil; part++ {
			err = run.records(part, &buf, func(rec []byte) error {
				if len(rec) != n {
					t.Fatalf("record of %d bytes, want %d", len(rec), n)
				}
				out = append(out, rec...)
				return nil
			})
		}
		if (err != nil) != bad {
			t.Fatalf("%d bytes in %d-byte records, blocks %v: err = %v", len(data), n, run.blocks, err)
		}
		if err == nil && !bytes.Equal(out, runBytes(run, data)) {
			t.Fatalf("records changed across a round trip:\n%x\n%x", runBytes(run, data), out)
		}
	})
}

// FuzzSpanRun checks the span-bucket reader: bytes stored as a span run
// whose fuzzed blocks all form bucket 0 (see fuzzRun), loaded as the
// bucket of samples lo … lo+n-1 (n taken mod 8, at least 1), fail
// spanBucket.load exactly when a block is not whole records, runs past
// the end of the stream, or holds a record of a sample outside that
// range; otherwise the loaded spans replay the records in stable
// sample-index order.
func FuzzSpanRun(f *testing.F) {
	var seed []byte
	for _, r := range []spanRec{{4, 1, 0.5}, {3, 2, 1}, {4, 3, 0.5}} {
		seed = putSpanRec(seed, r)
	}
	f.Add(uint8(3), uint8(2), []byte{}, seed)
	f.Add(uint8(3), uint8(2), []byte{spanRecSize - 1, spanRecSize - 1}, seed)

	f.Fuzz(func(t *testing.T, lo, n uint8, cuts, data []byte) {
		width := max(int(n%8), 1)
		run, bad := fuzzRun(t, 1, spanRecSize, cuts, data)
		defer run.drop()
		var b spanBucket
		err := b.load(run, 0, int64(lo), width)

		var want []spanRec
		if !bad {
			bucket := runBytes(run, data)
			for i := 0; i < len(bucket); i += spanRecSize {
				r := spanRec{idx: int64(getU64(bucket[i:])), key: int64(getU64(bucket[i+8:])), frac: getF64(bucket[i+16:])}
				bad = bad || r.idx < int64(lo) || r.idx >= int64(lo)+int64(width)
				want = append(want, r)
			}
		}
		if (err != nil) != bad {
			t.Fatalf("bucket [%d, %d), %d bytes, blocks %v: err = %v", lo, int(lo)+width, len(data), run.blocks, err)
		}
		if err != nil {
			return
		}
		slices.SortStableFunc(want, func(a, b spanRec) int { return cmp.Compare(a.idx, b.idx) })
		var got []spanRec
		for idx := int64(lo); idx < int64(lo)+int64(width); idx++ {
			for _, sp := range b.spansOf(idx) {
				got = append(got, spanRec{idx: idx, key: sp.key, frac: sp.frac})
			}
		}
		var wantB, gotB []byte
		for i := range want {
			wantB = putSpanRec(wantB, want[i])
		}
		for i := range got {
			gotB = putSpanRec(gotB, got[i])
		}
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("span bucket replayed out of stable index order:\n%x\n%x", wantB, gotB)
		}
	})
}

// TestSpanBucketRejectsOutOfRange pins that a span record of a sample
// outside the bucket's index range, on either side, fails the load with
// an error instead of indexing past the bucket.
func TestSpanBucketRejectsOutOfRange(t *testing.T) {
	for _, idx := range []int64{9, 20, 25, -1} {
		data := putSpanRec(putSpanRec(nil, spanRec{10, 0, 1}), spanRec{idx, 1, 1})
		run, _ := fuzzRun(t, 1, spanRecSize, nil, data)
		var b spanBucket
		err := b.load(run, 0, 10, 10)
		if err == nil || !strings.Contains(err.Error(), "outside") {
			t.Fatalf("record of sample %d in bucket [10, 20): err = %v", idx, err)
		}
	}
}

// putSpanRec appends r in the span record encoding.
func putSpanRec(dst []byte, r spanRec) []byte {
	dst = putU64(dst, uint64(r.idx))
	dst = putU64(dst, uint64(r.key))
	return putF64(dst, r.frac)
}

// FuzzShardStream checks the shard reader: bytes stored as a one-shard
// set of ncols columns (taken mod 8, at least 1) holding as many rows as
// the bytes begin, read back three rows at a time, either fail a read, or
// replay rows, in order, that the sampler's encoding turns into the same
// bytes.
func FuzzShardStream(f *testing.F) {
	f.Add(uint8(1), putI32s(nil, []int32{5}))

	f.Fuzz(func(t *testing.T, ncols uint8, data []byte) {
		nc := max(int(ncols%8), 1)
		set := &ShardSet{
			NCols: nc, Paths: []string{"shard"}, Total: (len(data) + 4*nc - 1) / (4 * nc),
			st: memStream(t, "shard", data),
		}
		var rd shardReader
		if err := rd.open(set); err != nil {
			t.Fatal(err)
		}
		defer rd.close()
		var out []byte
		var err error
		rows := make([]int32, 3*nc)
		for lo := 0; lo < set.Total && err == nil; lo += 3 {
			n := min(3, set.Total-lo)
			if err = rd.read(int64(lo), rows[:n*nc]); err == nil {
				out = putI32s(out, rows[:n*nc])
			}
		}
		if partial := len(data)%(4*nc) != 0; (err != nil) != partial {
			t.Fatalf("%d bytes in %d-column rows: err = %v", len(data), nc, err)
		}
		if err == nil && !bytes.Equal(out, data) {
			t.Fatalf("shard changed across a round trip:\n%x\n%x", data, out)
		}
	})
}

// memStream returns a fresh memory store holding data as the stream name.
func memStream(t testing.TB, name string, data []byte) *memStore {
	st := newMemStore()
	putStream(t, st, name, data)
	return st
}

// putStream writes data as the stream name in st, replacing any stream of
// that name.
func putStream(t testing.TB, st store, name string, data []byte) {
	t.Helper()
	w, err := st.create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// readStream returns the bytes of one stream in st.
func readStream(t testing.TB, st store, name string) []byte {
	t.Helper()
	r, err := st.open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(io.NewSectionReader(r, 0, math.MaxInt64))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMemFileReadAt checks memFile.ReadAt against the bytes written, for
// reads that start and end inside, at the edge of, and across the
// geometric and the full-size chunks, and past the end.
func TestMemFileReadAt(t *testing.T) {
	data := make([]byte, 5*memChunkMax+123)
	for i := range data {
		data[i] = byte(i * 7)
	}
	f := &memFile{}
	for rest := data; len(rest) > 0; {
		n := min(len(rest), 3001)
		f.Write(rest[:n])
		rest = rest[n:]
	}
	for _, off := range []int{0, 1, memChunkMin - 1, memChunkMin, 3*memChunkMin + 5, 15 * memChunkMin, 2*memChunkMax - 1, len(data) - 10, len(data), len(data) + 1} {
		for _, n := range []int{0, 1, 7, memChunkMin, memChunkMax + 3} {
			p := make([]byte, n)
			got, err := f.ReadAt(p, int64(off))
			want := max(min(n, len(data)-off), 0)
			if got != want || (got < n) != (err == io.EOF) || (got == n && err != nil) {
				t.Fatalf("ReadAt(%d bytes, %d) = %d, %v; want %d bytes", n, off, got, err, want)
			}
			if !bytes.Equal(p[:got], data[min(off, len(data)):][:got]) {
				t.Fatalf("ReadAt(%d bytes, %d) returned the wrong bytes", n, off)
			}
		}
	}
}
