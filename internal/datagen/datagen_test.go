package datagen

import (
	"testing"

	"sam/internal/engine"
)

func TestCensusShape(t *testing.T) {
	s := Census(1, 2000)
	if !s.SingleTable() {
		t.Fatal("census must be a single relation")
	}
	tab := s.Tables[0]
	if len(tab.Cols) != 14 {
		t.Fatalf("census has %d columns, want 14", len(tab.Cols))
	}
	if tab.NumRows() != 2000 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	minDom, maxDom := 1<<30, 0
	for _, c := range tab.Cols {
		if c.NumValues < minDom {
			minDom = c.NumValues
		}
		if c.NumValues > maxDom {
			maxDom = c.NumValues
		}
	}
	if minDom != 2 || maxDom != 123 {
		t.Fatalf("domain range [%d, %d], want [2, 123]", minDom, maxDom)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCensusDeterministic(t *testing.T) {
	a := Census(7, 500)
	b := Census(7, 500)
	for ci := range a.Tables[0].Cols {
		ca, cb := a.Tables[0].Cols[ci], b.Tables[0].Cols[ci]
		for i := range ca.Data {
			if ca.Data[i] != cb.Data[i] {
				t.Fatalf("column %s row %d differs across same-seed runs", ca.Name, i)
			}
		}
	}
	c := Census(8, 500)
	same := true
	for ci := range a.Tables[0].Cols {
		for i := range a.Tables[0].Cols[ci].Data {
			if a.Tables[0].Cols[ci].Data[i] != c.Tables[0].Cols[ci].Data[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestCensusHasCorrelation(t *testing.T) {
	// education_num and age must be positively correlated by construction.
	s := Census(2, 5000)
	tab := s.Tables[0]
	age := tab.Col("age")
	edu := tab.Col("education_num")
	var sa, se, saa, see, sae float64
	n := float64(tab.NumRows())
	for i := 0; i < tab.NumRows(); i++ {
		a, e := float64(age.Data[i]), float64(edu.Data[i])
		sa += a
		se += e
		saa += a * a
		see += e * e
		sae += a * e
	}
	cov := sae/n - (sa/n)*(se/n)
	va := saa/n - (sa/n)*(sa/n)
	ve := see/n - (se/n)*(se/n)
	corr := cov / (sqrt(va) * sqrt(ve))
	if corr < 0.15 {
		t.Fatalf("age/education correlation %v too weak", corr)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	// Newton's method suffices for a test helper.
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestDMVShape(t *testing.T) {
	s := DMV(3, 3000)
	tab := s.Tables[0]
	if len(tab.Cols) != 11 {
		t.Fatalf("dmv has %d columns, want 11", len(tab.Cols))
	}
	minDom, maxDom := 1<<30, 0
	for _, c := range tab.Cols {
		if c.NumValues < minDom {
			minDom = c.NumValues
		}
		if c.NumValues > maxDom {
			maxDom = c.NumValues
		}
	}
	if minDom != 2 || maxDom != 2101 {
		t.Fatalf("domain range [%d, %d], want [2, 2101]", minDom, maxDom)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIMDBShape(t *testing.T) {
	s := IMDB(4, 1000)
	if len(s.Tables) != 6 {
		t.Fatalf("imdb has %d tables, want 6", len(s.Tables))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	title := s.Table("title")
	if title == nil || title.Parent != "" {
		t.Fatal("title must be the root")
	}
	for _, name := range []string{"cast_info", "movie_companies", "movie_info", "movie_info_idx", "movie_keyword"} {
		tab := s.Table(name)
		if tab == nil {
			t.Fatalf("missing table %s", name)
		}
		if tab.Parent != "title" {
			t.Fatalf("%s parent = %q", name, tab.Parent)
		}
		if tab.NumRows() == 0 {
			t.Fatalf("%s is empty", name)
		}
		for _, fk := range tab.FK {
			if fk < 0 || fk >= int64(title.NumRows()) {
				t.Fatalf("%s has dangling FK %d", name, fk)
			}
		}
	}
}

func TestIMDBFanoutsAreSkewedWithZeros(t *testing.T) {
	s := IMDB(5, 2000)
	fan := map[int64]int64{} // cast_info rows per title key
	for _, fk := range s.Table("cast_info").FK {
		fan[fk]++
	}
	title := s.Table("title")
	zeros := title.NumRows() - len(fan)
	if zeros == 0 {
		t.Fatal("expected some titles with no cast_info (NULLs in the FOJ)")
	}
	maxFan := int64(0)
	var sum int64
	for _, c := range fan {
		if c > maxFan {
			maxFan = c
		}
		sum += c
	}
	mean := float64(sum) / float64(len(fan))
	if float64(maxFan) < 2.5*mean {
		t.Fatalf("fanout not heavy-tailed: max %d mean %.1f", maxFan, mean)
	}
}

func TestIMDBFOJLargerThanBaseTables(t *testing.T) {
	s := IMDB(6, 500)
	foj := engine.FOJSize(s)
	base := 0
	for _, tab := range s.Tables {
		base += tab.NumRows()
	}
	if foj <= int64(base) {
		t.Fatalf("FOJ size %d should exceed total base rows %d", foj, base)
	}
}

func TestIMDBChildParentCorrelation(t *testing.T) {
	// cast_info.role_id is constructed to track title.kind_id: the mean
	// role_id for kind 0 titles must differ from kind ≥ 4 titles.
	s := IMDB(7, 3000)
	title := s.Table("title")
	ci := s.Table("cast_info")
	kindOf := title.Col("kind_id").Data
	role := ci.Col("role_id").Data
	var lowSum, lowN, highSum, highN float64
	for i := 0; i < ci.NumRows(); i++ {
		k := kindOf[ci.FK[i]]
		v := float64(role[i])
		if k == 0 {
			lowSum += v
			lowN++
		} else if k >= 4 {
			highSum += v
			highN++
		}
	}
	if lowN == 0 || highN == 0 {
		t.Skip("not enough data in one bucket")
	}
	if highSum/highN-lowSum/lowN < 1.0 {
		t.Fatalf("child attribute not correlated with parent kind: low %.2f high %.2f",
			lowSum/lowN, highSum/highN)
	}
}

func TestTPCHShape(t *testing.T) {
	s := TPCH(1, 500)
	if len(s.Tables) != 3 {
		t.Fatalf("tables %d", len(s.Tables))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Table("orders").Parent != "customer" || s.Table("lineitem").Parent != "orders" {
		t.Fatal("chain parents wrong")
	}
	if s.Table("lineitem").NumRows() <= s.Table("orders").NumRows() {
		t.Fatal("lineitem should outnumber orders")
	}
}

func TestTPCHCorrelationFlowsDownChain(t *testing.T) {
	s := TPCH(2, 2000)
	cust := s.Table("customer")
	ord := s.Table("orders")
	li := s.Table("lineitem")
	// quantity correlates with grandparent segment via order priority.
	var loSum, loN, hiSum, hiN float64
	for i := 0; i < li.NumRows(); i++ {
		order := li.FK[i]
		seg := cust.Col("mktsegment").Data[ord.FK[order]]
		q := float64(li.Col("quantity").Data[i])
		if seg == 0 {
			loSum += q
			loN++
		} else if seg >= 3 {
			hiSum += q
			hiN++
		}
	}
	if loN == 0 || hiN == 0 {
		t.Skip("insufficient data")
	}
	if hiSum/hiN-loSum/loN < 3 {
		t.Fatalf("chain correlation too weak: lo %.1f hi %.1f", loSum/loN, hiSum/hiN)
	}
}
