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
	st := newMemStore()
	w, err := st.create("run")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(append(head, make([]byte, memberRecSize)...)) // one member present
	w.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = readGroupRun(st, "run", 1, func(*group) error {
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
		st := newMemStore()
		w, err := st.create("in")
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
		var groups []*group
		err = readGroupRun(st, "in", int(nc%4), func(g *group) error {
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

// readStream returns the bytes of one memStore stream.
func readStream(t testing.TB, st *memStore, name string) []byte {
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
