package relation

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardRoundTrip writes a shard file through a buffered ShardWriter,
// patches the header row count on close, and streams it back.
func TestShardRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), ShardFileName(3))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	w, err := NewShardWriter(bw, 4, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	rows := []int32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		-1, 0, 2147483647, -2147483648,
	}
	if err := w.WriteRows(rows); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows(rows[:4]); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.PatchRows(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	r, err := NewShardReader(bufio.NewReader(rf))
	if err != nil {
		t.Fatal(err)
	}
	if r.NCols() != 4 || r.shard != 3 || r.seed != 99 {
		t.Fatalf("header ncols=%d shard=%d seed=%d", r.NCols(), r.shard, r.seed)
	}
	if r.Rows() != 4 {
		t.Fatalf("patched row count %d want 4", r.Rows())
	}
	// Read back through a buffer smaller than the stream to exercise
	// partial reads.
	buf := make([]int32, 3*4)
	var got []int32
	for {
		n, err := r.ReadRows(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n*4]...)
	}
	want := append(append([]int32{}, rows...), rows[:4]...)
	if len(got) != len(want) {
		t.Fatalf("read %d codes want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("code %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestShardWriterValidation(t *testing.T) {
	var b bytes.Buffer
	if _, err := NewShardWriter(&b, 0, 0, 1); err == nil {
		t.Fatal("accepted zero columns")
	}
	if _, err := NewShardWriter(&b, 2, -1, 1); err == nil {
		t.Fatal("accepted negative shard")
	}
	w, err := NewShardWriter(&b, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows([]int32{1, 2, 3}); err == nil {
		t.Fatal("accepted partial row")
	}
}

func TestShardReaderRejectsCorruptStreams(t *testing.T) {
	if _, err := NewShardReader(strings.NewReader("not a shard file at all")); err == nil {
		t.Fatal("accepted bad magic")
	}

	// A stream truncated mid-row must error rather than silently drop
	// codes.
	var b bytes.Buffer
	w, err := NewShardWriter(&b, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows([]int32{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	trunc := b.Bytes()[:b.Len()-2]
	r, err := NewShardReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int32, 8)
	if _, err := r.ReadRows(buf); err == nil || err == io.EOF {
		t.Fatalf("mid-row truncation not detected: %v", err)
	}

	// A recorded row count must match the rows the stream holds, and only
	// -1 may stand for an unknown count.
	for _, rows := range []int64{-2, 0, 1, 3} {
		data := append([]byte(nil), b.Bytes()...)
		binary.LittleEndian.PutUint64(data[24:], uint64(rows))
		r, err := NewShardReader(bytes.NewReader(data))
		for err == nil {
			_, err = r.ReadRows(buf[:2])
		}
		if err == io.EOF {
			t.Fatalf("header row count %d accepted for a 2-row shard", rows)
		}
	}
}

// sliceWriterAt writes into a byte slice in place, so PatchRows can patch
// an in-memory shard.
type sliceWriterAt []byte

func (w sliceWriterAt) WriteAt(p []byte, off int64) (int, error) {
	return copy(w[off:], p), nil
}

// FuzzShardReader checks that any byte string the reader accepts — its
// header and every row up to EOF — is exactly what ShardWriter writes for
// the same header fields and rows (patched with PatchRows when the header
// records a count). The read buffer is sized from the input's length,
// never from the header's column count alone.
func FuzzShardReader(f *testing.F) {
	var seed bytes.Buffer
	if _, err := NewShardWriter(&seed, 1, 0, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewShardReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Size the read buffer from the input's length: skip headers whose
		// rows are wider than the body (at most one column when there is no
		// body), which can hold no whole row.
		if r.NCols() > max((len(data)-ShardHeaderSize)/4, 1) {
			return
		}
		buf := make([]int32, r.NCols())
		var rows []int32
		for {
			n, err := r.ReadRows(buf)
			if err == io.EOF {
				break
			}
			if err != nil {
				return
			}
			rows = append(rows, buf[:n*r.NCols()]...)
		}
		var out bytes.Buffer
		w, err := NewShardWriter(&out, r.NCols(), r.shard, r.seed)
		if err != nil {
			t.Fatalf("accepted header does not write: %v", err)
		}
		if err := w.WriteRows(rows); err != nil {
			t.Fatal(err)
		}
		if r.Rows() >= 0 {
			if err := w.PatchRows(sliceWriterAt(out.Bytes())); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted shard re-encodes differently:\n%x\n%x", data, out.Bytes())
		}
	})
}

func TestShardStreamHeaderWithoutPatch(t *testing.T) {
	// Writers over non-seekable sinks leave the row count unknown; readers
	// must still stream to EOF.
	var b bytes.Buffer
	w, err := NewShardWriter(&b, 2, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRows([]int32{9, 8, 7, 6}); err != nil {
		t.Fatal(err)
	}
	r, err := NewShardReader(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows() != -1 {
		t.Fatalf("unpatched row count %d want -1", r.Rows())
	}
	buf := make([]int32, 4)
	n, err := r.ReadRows(buf)
	if err != nil || n != 2 {
		t.Fatalf("read %d rows err %v", n, err)
	}
	if _, err := r.ReadRows(buf); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCSVRowWriterMatchesWriteCSV(t *testing.T) {
	// The streaming row writer and the in-memory table writer must emit
	// byte-identical CSV for identical rows.
	col := NewColumn("x", Categorical, 5)
	for _, v := range []int32{4, 0, 3} {
		col.Append(v)
	}
	tb := NewTable("child", col)
	tb.Parent = "root"
	tb.FK = []int64{2, 0, 1}
	tb.PKVals = []int64{0, 1, 2}

	var mem bytes.Buffer
	if err := tb.WriteCSV(&mem); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	rw, err := NewCSVRowWriter(&streamed, tb, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tb.NumRows(); i++ {
		if err := rw.WriteRow(tb.PKVals[i], []int32{col.Data[i]}, tb.FK[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if mem.String() != streamed.String() {
		t.Fatalf("csv mismatch:\nmem:\n%s\nstream:\n%s", mem.String(), streamed.String())
	}

	// And ReadCSV round-trips the streamed bytes.
	rootCol := NewColumn("r", Categorical, 2)
	rootCol.Append(0)
	rootCol.Append(1)
	rootCol.Append(0)
	root := NewTable("root", rootCol)
	spec := MustSchema(root, tb).Spec()
	shell, err := spec.EmptySchema()
	if err != nil {
		t.Fatal(err)
	}
	back := shell.Table("child")
	if err := back.ReadCSV(&streamed); err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 3 || back.FK[0] != 2 || back.PKVals[2] != 2 || back.Cols[0].Data[2] != 3 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestShardFileNameStable(t *testing.T) {
	if got := ShardFileName(7); got != "shard-00007.bin" {
		t.Fatalf("shard file name %q", got)
	}
	if got := filepath.Join("d", ShardFileName(0)); got != filepath.Join("d", "shard-00000.bin") {
		t.Fatal("join mismatch")
	}
	// Names sort in shard order for directory scans.
	if !(ShardFileName(9) < ShardFileName(10)) {
		t.Fatal("shard names do not sort numerically")
	}
	if _, err := os.Stat(filepath.Join(t.TempDir(), ShardFileName(0))); err == nil {
		t.Fatal("unexpected file")
	}
}
