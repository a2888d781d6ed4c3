package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// TestGroupRunTruncatedHeader pins that a group header claiming more
// members than the run holds fails the read without allocating for the
// missing members (2^20 of them would be 16 MiB).
func TestGroupRunTruncatedHeader(t *testing.T) {
	head := make([]byte, groupHeadSize(1))
	binary.LittleEndian.PutUint32(head[16:], 1<<20)
	st := memStream(t, "run", append(head, make([]byte, memberRecSize)...)) // one member present

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := readGroupRun(st, "run", 1, func(*group) error {
		t.Fatal("truncated group delivered")
		return nil
	})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated group run accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a truncated run allocated %d bytes", grew)
	}
}

// FuzzGroupRun checks the group-run reader: bytes in a memStore stream
// either fail readGroupRun, or read back to groups that writeGroupRun
// turns into the same bytes. nc (taken mod 4) is the content column count
// the reader is told to expect.
func FuzzGroupRun(f *testing.F) {
	seed := []*group{{
		gw:      2.5,
		pk:      7,
		content: []int32{3, -1},
		members: []memberRec{{idx: 0, w: 1.5}, {idx: 4, w: 1}},
	}}
	st := newMemStore()
	if err := writeGroupRun(st, "seed", seed); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(2), readStream(f, st, "seed"))

	f.Fuzz(func(t *testing.T, nc uint8, data []byte) {
		st := memStream(t, "in", data)
		var groups []*group
		err := readGroupRun(st, "in", int(nc%4), func(g *group) error {
			groups = append(groups, g)
			return nil
		})
		if err != nil {
			return
		}
		if err := writeGroupRun(st, "out", groups); err != nil {
			t.Fatalf("accepted groups do not write: %v", err)
		}
		if out := readStream(t, st, "out"); !bytes.Equal(out, data) {
			t.Fatalf("group run changed across a round trip:\n%x\n%x", data, out)
		}
	})
}

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

// FuzzSpanRun checks the span-run source: one run, drained through
// openSpanMerge and spansFor, fails exactly when the run ends inside a
// record, and otherwise decodes to span records that writeSpanRun's
// encoding turns into the same bytes, in run order.
func FuzzSpanRun(f *testing.F) {
	var seed []byte
	seed = putU64(seed, 3)
	seed = putU64(seed, 1)
	seed = putF64(seed, 0.5)
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		var out []byte
		err := func() error {
			m, err := openSpanMerge(memStream(t, spillPath("d", "t.span", 0), data), "d", "t.span", 1)
			if err != nil {
				return err
			}
			defer m.Close()
			var spans []keySpan
			for len(m.h) > 0 {
				idx := m.h[0].cur.idx
				if spans, err = m.spansFor(idx, spans[:0]); err != nil {
					return err
				}
				for _, sp := range spans {
					out = putU64(out, uint64(idx))
					out = putU64(out, uint64(sp.key))
					out = putF64(out, sp.frac)
				}
			}
			return nil
		}()
		if partial := len(data)%spanRecSize != 0; (err != nil) != partial {
			t.Fatalf("%d bytes in %d-byte records: err = %v", len(data), spanRecSize, err)
		}
		if err == nil && !bytes.Equal(out, data) {
			t.Fatalf("span run changed across a round trip:\n%x\n%x", data, out)
		}
	})
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
