package core

import (
	"bytes"
	"cmp"
	"io"
	"slices"
	"strings"
	"testing"
)

// FuzzRawRecords checks the spill-partition reader: readRecords fails
// exactly when the stream ends inside a record of size bytes (size taken
// mod 64, at least 1), and otherwise hands out records whose
// concatenation is the stream.
func FuzzRawRecords(f *testing.F) {
	f.Add(uint8(1), []byte{7})

	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := max(int(size%64), 1)
		var out []byte
		err := readRecords(memStream(t, "part", data), "part", n, func(rec []byte) error {
			if len(rec) != n {
				t.Fatalf("record of %d bytes, want %d", len(rec), n)
			}
			out = append(out, rec...)
			return nil
		})
		if partial := len(data)%n != 0; (err != nil) != partial {
			t.Fatalf("%d bytes in %d-byte records: err = %v", len(data), n, err)
		}
		if err == nil && !bytes.Equal(out, data) {
			t.Fatalf("records changed across a round trip:\n%x\n%x", data, out)
		}
	})
}

// FuzzSpanRun checks the span-bucket reader: bytes stored as the bucket
// of samples lo … lo+n-1 (n taken mod 8, at least 1) fail spanBucket.load
// exactly when the bucket ends inside a record or holds a record of a
// sample outside that range; otherwise the loaded spans replay the
// records in stable sample-index order.
func FuzzSpanRun(f *testing.F) {
	var seed []byte
	for _, r := range []spanRec{{4, 1, 0.5}, {3, 2, 1}, {4, 3, 0.5}} {
		seed = putSpanRec(seed, r)
	}
	f.Add(uint8(3), uint8(2), seed)

	f.Fuzz(func(t *testing.T, lo, n uint8, data []byte) {
		width := max(int(n%8), 1)
		var b spanBucket
		err := b.load(memStream(t, "bucket", data), "bucket", int64(lo), width)

		var want []spanRec
		bad := len(data)%spanRecSize != 0
		for i := 0; !bad && i < len(data); i += spanRecSize {
			r := spanRec{idx: int64(getU64(data[i:])), key: int64(getU64(data[i+8:])), frac: getF64(data[i+16:])}
			bad = r.idx < int64(lo) || r.idx >= int64(lo)+int64(width)
			want = append(want, r)
		}
		if (err != nil) != bad {
			t.Fatalf("bucket [%d, %d) of %d bytes: err = %v", lo, int(lo)+width, len(data), err)
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
		var b spanBucket
		err := b.load(memStream(t, "bucket", data), "bucket", 10, 10)
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
// set of ncols columns (taken mod 8, at least 1) either fail Stream, or
// replay rows, in order, that the sampler's encoding turns into the same
// bytes.
func FuzzShardStream(f *testing.F) {
	f.Add(uint8(1), putI32s(nil, []int32{5}))

	f.Fuzz(func(t *testing.T, ncols uint8, data []byte) {
		nc := max(int(ncols%8), 1)
		set := &ShardSet{
			NCols: nc, Paths: []string{"shard"}, Total: len(data) / (4 * nc),
			st: memStream(t, "shard", data),
		}
		var out []byte
		var rows int64
		err := set.Stream(make([]int32, 3*nc), func(idx int64, row []int32) error {
			if idx != rows || len(row) != nc {
				t.Fatalf("row %d of %d codes delivered as row %d of %d", rows, nc, idx, len(row))
			}
			rows++
			out = putI32s(out, row)
			return nil
		})
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
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
