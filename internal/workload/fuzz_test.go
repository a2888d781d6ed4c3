package workload_test

import (
	"bytes"
	"strings"
	"testing"

	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/workload"
)

// FuzzWorkload feeds workload files through samgen's input check,
// workload.Read followed by Query.Validate on every query. A workload it
// accepts must count through engine.Card without a panic and come out the
// same after Write and then Read.
func FuzzWorkload(f *testing.F) {
	f.Add(`{"queries":[{"tables":["title"],"preds":[{"table":"title","column":"kind_id","op":2,"code":1}],"card":3}]}`)
	// An op outside LE/GE/EQ/IN once passed Validate and panicked in Card.
	f.Add(`{"queries":[{"tables":["title"],"preds":[{"table":"title","column":"kind_id","op":7,"code":1}],"card":3}]}`)
	s := datagen.IMDB(1, 20)

	f.Fuzz(func(t *testing.T, text string) {
		w, err := workload.Read(strings.NewReader(text))
		if err != nil {
			return
		}
		for i := range w.Queries {
			if w.Queries[i].Validate(s) != nil {
				return
			}
		}
		for i := range w.Queries {
			engine.Card(s, &w.Queries[i].Query)
		}
		var first bytes.Buffer
		if err := w.Write(&first); err != nil {
			t.Fatalf("accepted workload does not write: %v", err)
		}
		again, err := workload.Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written workload rejected: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("workload changed across Write and Read:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
