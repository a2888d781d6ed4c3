package relation

import (
	"bytes"
	"testing"
)

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
