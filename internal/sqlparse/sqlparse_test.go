package sqlparse

import (
	"strings"
	"testing"

	"sam/internal/datagen"
	"sam/internal/engine"
	"sam/internal/relation"
	"sam/internal/workload"
)

func imdbSchema(t *testing.T) *relation.Schema {
	t.Helper()
	return datagen.IMDB(1, 200)
}

func TestParseSingleTable(t *testing.T) {
	s := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*) FROM title WHERE kind_id <= 3 AND production_year >= 50", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 1 || q.Tables[0] != "title" {
		t.Fatalf("tables %v", q.Tables)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds %v", q.Preds)
	}
	if q.Preds[0].Op != workload.LE || q.Preds[0].Code != 3 {
		t.Fatalf("pred 0: %+v", q.Preds[0])
	}
}

func TestParseJoinWithAliases(t *testing.T) {
	s := imdbSchema(t)
	sql := `SELECT COUNT(*) FROM title t, cast_info ci
	        WHERE t.id = ci.movie_id AND t.kind_id = 2 AND ci.role_id <= 5;`
	q, err := Parse(sql, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Tables) != 2 {
		t.Fatalf("tables %v", q.Tables)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("join condition leaked into predicates: %v", q.Preds)
	}
	// Parsed query must execute.
	if card := engine.Card(s, q); card < 0 {
		t.Fatal("unexecutable query")
	}
}

func TestParseStrictComparisonsRewritten(t *testing.T) {
	s := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*) FROM title WHERE kind_id < 3 AND production_year > 50", s)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Op != workload.LE || q.Preds[0].Code != 2 {
		t.Fatalf("< not rewritten: %+v", q.Preds[0])
	}
	if q.Preds[1].Op != workload.GE || q.Preds[1].Code != 51 {
		t.Fatalf("> not rewritten: %+v", q.Preds[1])
	}
}

func TestParseINList(t *testing.T) {
	s := imdbSchema(t)
	q, err := Parse("SELECT COUNT(*) FROM cast_info ci, title t WHERE t.id = ci.movie_id AND ci.role_id IN (1, 3, 5)", s)
	if err != nil {
		t.Fatal(err)
	}
	var in *workload.Predicate
	for i := range q.Preds {
		if q.Preds[i].Op == workload.IN {
			in = &q.Preds[i]
		}
	}
	if in == nil || len(in.Codes) != 3 {
		t.Fatalf("IN predicate missing: %v", q.Preds)
	}
}

func TestParseAllSplitsStatements(t *testing.T) {
	s := imdbSchema(t)
	input := `SELECT COUNT(*) FROM title WHERE kind_id = 1;
	          SELECT COUNT(*) FROM title WHERE kind_id = 2;`
	qs, err := ParseAll(input, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 {
		t.Fatalf("parsed %d statements", len(qs))
	}
}

func TestParseSQLAgainstEngine(t *testing.T) {
	// Parsed cardinalities must match hand-built queries.
	s := imdbSchema(t)
	q1, err := Parse("SELECT COUNT(*) FROM title t, movie_keyword mk WHERE t.id = mk.movie_id AND mk.keyword_id <= 100", s)
	if err != nil {
		t.Fatal(err)
	}
	q2 := workload.Query{
		Tables: []string{"title", "movie_keyword"},
		Preds: []workload.Predicate{
			{Table: "movie_keyword", Column: "keyword_id", Op: workload.LE, Code: 100},
		},
	}
	if engine.Card(s, q1) != engine.Card(s, &q2) {
		t.Fatal("SQL and hand-built query disagree")
	}
}

func TestParseErrors(t *testing.T) {
	s := imdbSchema(t)
	cases := []string{
		"",
		"SELECT * FROM title",
		"SELECT COUNT(*) FROM nope",
		"SELECT COUNT(*) FROM title WHERE bogus = 1",
		"SELECT COUNT(*) FROM title WHERE kind_id == 1 OR 1",
		"SELECT COUNT(*) FROM title t, title u WHERE t.kind_id = 1", // duplicate table via Validate
		"SELECT COUNT(*) FROM title WHERE kind_id IN ()",
		"SELECT COUNT(*) FROM cast_info ci, movie_keyword mk WHERE ci.movie_id = mk.movie_id", // non-FK join (+ disconnected)
		"SELECT COUNT(*) FROM title WHERE kind_id <= 99999",                                   // out of domain
		"SELECT COUNT(*) FROM title WHERE kind_id = 1 garbage",
	}
	for i, sql := range cases {
		if _, err := Parse(sql, s); err == nil {
			t.Fatalf("case %d accepted: %q", i, sql)
		}
	}
}

func TestBareColumnAmbiguity(t *testing.T) {
	s := imdbSchema(t)
	// info_type_id exists in both movie_info and movie_info_idx.
	_, err := Parse("SELECT COUNT(*) FROM title t, movie_info mi, movie_info_idx mii WHERE t.id = mi.movie_id AND t.id = mii.movie_id AND info_type_id = 1", s)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column accepted: %v", err)
	}
}

// FuzzParse checks that Parse either rejects its input or returns a query
// the exact engine counts on a tiny IMDB schema, and that ParseAll never
// panics on the same input.
func FuzzParse(f *testing.F) {
	s := datagen.IMDB(1, 20)
	f.Add("SELECT COUNT(*) FROM title")
	f.Fuzz(func(t *testing.T, sql string) {
		if q, err := Parse(sql, s); err == nil {
			if card := engine.Card(s, q); card < 0 {
				t.Fatalf("negative cardinality %d for %q", card, sql)
			}
		}
		_, _ = ParseAll(sql, s) // errors are expected; only panics fail
	})
}
