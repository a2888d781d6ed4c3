// Package datagen builds the deterministic synthetic datasets that stand in
// for the paper's real-world evaluation data (Census, DMV, IMDB/JOB-light).
// The generators reproduce what the algorithms actually consume: column
// counts, mixed categorical/numeric types, matching domain-size ranges,
// value skew, cross-column correlation, and — for the IMDB-like star schema
// — heavy-tailed foreign-key fanouts correlated with parent attributes.
// Row counts are parameters so experiments can be scaled to a CPU budget.
package datagen

import (
	"math"
	"math/rand"

	"sam/internal/relation"
)

// zipfDraw returns a Zipf-skewed value in [0, n) with exponent s.
func zipfDraw(rng *rand.Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return int(z.Uint64())
}

// clampedNormal draws round(N(mu, sigma)) clamped into [0, n).
func clampedNormal(rng *rand.Rand, mu, sigma float64, n int) int {
	v := int(math.Round(rng.NormFloat64()*sigma + mu))
	if v < 0 {
		v = 0
	}
	if v >= n {
		v = n - 1
	}
	return v
}

// censusSpec describes one column of the census-like table. The real Census
// (UCI Adult) has 14 columns with domain sizes from 2 to 123 after the
// preprocessing the paper cites.
type censusSpec struct {
	name   string
	kind   relation.Kind
	domain int
}

var censusSpecs = []censusSpec{
	{"age", relation.Numeric, 74},
	{"workclass", relation.Categorical, 9},
	{"fnlwgt_bucket", relation.Numeric, 100},
	{"education", relation.Categorical, 16},
	{"education_num", relation.Numeric, 16},
	{"marital_status", relation.Categorical, 7},
	{"occupation", relation.Categorical, 15},
	{"relationship", relation.Categorical, 6},
	{"race", relation.Categorical, 5},
	{"sex", relation.Categorical, 2},
	{"capital_gain", relation.Numeric, 123},
	{"capital_loss", relation.Numeric, 99},
	{"hours_per_week", relation.Numeric, 96},
	{"native_country", relation.Categorical, 42},
}

// Census generates a single-relation census-like table with rows rows. A
// latent socioeconomic class drives correlated draws across columns, so the
// joint distribution is far from independent — the regime where the paper's
// AR model beats independence-assuming baselines.
func Census(seed int64, rows int) *relation.Schema {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*relation.Column, len(censusSpecs))
	for i, sp := range censusSpecs {
		cols[i] = relation.NewColumn(sp.name, sp.kind, sp.domain)
	}
	for r := 0; r < rows; r++ {
		// Latent class 0..4, skewed toward lower classes.
		cls := zipfDraw(rng, 5, 1.3)
		fc := float64(cls)
		eduNum := clampedNormal(rng, 4+fc*2.6, 1.8, 16)
		age := clampedNormal(rng, 18+fc*9+float64(eduNum), 9, 74)
		vals := []int{
			age,
			clampedNormal(rng, fc*1.7, 1.5, 9),
			zipfDraw(rng, 100, 1.2),
			eduNum, // education label tracks education_num
			eduNum,
			clampedNormal(rng, 1.2+0.4*float64(age)/10, 1.4, 7),
			clampedNormal(rng, fc*3, 2.2, 15),
			clampedNormal(rng, 2.5-fc*0.4, 1.3, 6),
			zipfDraw(rng, 5, 1.6),
			rng.Intn(2),
			0, // capital_gain, filled below
			0, // capital_loss, filled below
			clampedNormal(rng, 30+fc*4, 9, 96),
			zipfDraw(rng, 42, 1.8),
		}
		// Capital gain/loss: mostly zero, heavy tail growing with class.
		if rng.Float64() < 0.06+0.05*fc {
			vals[10] = 1 + zipfDraw(rng, 122, 1.1)
		}
		if rng.Float64() < 0.04 {
			vals[11] = 1 + zipfDraw(rng, 98, 1.2)
		}
		for i, v := range vals {
			cols[i].Append(int32(v))
		}
	}
	return relation.MustSchema(relation.NewTable("census", cols...))
}

// dmvSpec mirrors the DMV vehicle-registration table: 11 columns with
// widely varying types and domain sizes from 2 to 2101 (the paper's
// preprocessed range).
type dmvSpec struct {
	name   string
	kind   relation.Kind
	domain int
}

var dmvSpecs = []dmvSpec{
	{"record_type", relation.Categorical, 2},
	{"registration_class", relation.Categorical, 75},
	{"state", relation.Categorical, 5},
	{"county", relation.Categorical, 63},
	{"body_type", relation.Categorical, 59},
	{"fuel_type", relation.Categorical, 9},
	{"unladen_weight", relation.Numeric, 800},
	{"weight_bucket", relation.Numeric, 150},
	{"model_year", relation.Numeric, 120},
	{"color", relation.Categorical, 225},
	{"make", relation.Categorical, 2101},
}

// DMV generates the DMV-like single relation. The latent variable is a
// vehicle segment (passenger / commercial / motorcycle / trailer …), which
// correlates make, body type, weight and fuel.
func DMV(seed int64, rows int) *relation.Schema {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*relation.Column, len(dmvSpecs))
	for i, sp := range dmvSpecs {
		cols[i] = relation.NewColumn(sp.name, sp.kind, sp.domain)
	}
	for r := 0; r < rows; r++ {
		seg := zipfDraw(rng, 6, 1.4)
		fs := float64(seg)
		weight := clampedNormal(rng, 120+fs*110, 70, 800)
		makeBase := seg * 330
		makeID := makeBase + zipfDraw(rng, 2101-makeBase, 1.35)
		if makeID >= 2101 {
			makeID = 2100
		}
		vals := []int{
			boolToInt(rng.Float64() < 0.93),
			clampedNormal(rng, fs*11, 6, 75),
			zipfDraw(rng, 5, 2.0),
			zipfDraw(rng, 63, 1.15),
			clampedNormal(rng, fs*9, 5, 59),
			clampedNormal(rng, fs*1.1, 1.1, 9),
			weight,
			weight * 150 / 800,
			clampedNormal(rng, 80-fs*6, 14, 120),
			zipfDraw(rng, 225, 1.35),
			makeID,
		}
		for i, v := range vals {
			cols[i].Append(int32(v))
		}
	}
	return relation.MustSchema(relation.NewTable("dmv", cols...))
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// IMDB generates the JOB-light star schema: title at the root and five
// foreign-key relations (cast_info, movie_companies, movie_info,
// movie_info_idx, movie_keyword). Fanouts are heavy-tailed and may be zero
// (so the full outer join contains NULL-extended tuples), child attribute
// distributions depend on the parent title's kind and year, and a latent
// per-title "popularity" correlates the fanouts of all child relations
// with each other beyond what the title's content columns explain — the
// joint structure that pairwise view-based key assignment cannot recover
// but Group-and-Merge can (§4.3.2).
func IMDB(seed int64, titleRows int) *relation.Schema {
	rng := rand.New(rand.NewSource(seed))

	kind := relation.NewColumn("kind_id", relation.Categorical, 7)
	year := relation.NewColumn("production_year", relation.Numeric, 133)
	titleKinds := make([]int, titleRows)
	titleYears := make([]int, titleRows)
	titlePop := make([]float64, titleRows)
	for i := 0; i < titleRows; i++ {
		k := zipfDraw(rng, 7, 1.2)
		y := clampedNormal(rng, 95-float64(k)*4, 18, 133)
		titleKinds[i], titleYears[i] = k, y
		// Popularity: heavy-tailed, hidden from the content columns.
		switch zipfDraw(rng, 3, 1.4) {
		case 0:
			titlePop[i] = 0.6
		case 1:
			titlePop[i] = 1.5
		default:
			titlePop[i] = 4
		}
		kind.Append(int32(k))
		year.Append(int32(y))
	}
	title := relation.NewTable("title", kind, year)

	type childSpec struct {
		name     string
		colName  string
		domain   int
		kind     relation.Kind
		meanFan  float64 // average children per title
		zeroProb float64 // chance a title has no children at all
		skew     float64
	}
	specs := []childSpec{
		{"cast_info", "role_id", 11, relation.Categorical, 3.0, 0.03, 1.3},
		{"movie_companies", "company_type_id", 4, relation.Categorical, 1.3, 0.10, 1.5},
		{"movie_info", "info_type_id", 71, relation.Categorical, 2.0, 0.05, 1.25},
		{"movie_info_idx", "info_type_id", 5, relation.Categorical, 0.8, 0.20, 1.6},
		{"movie_keyword", "keyword_id", 500, relation.Categorical, 2.3, 0.08, 1.15},
	}
	tables := []*relation.Table{title}
	for _, sp := range specs {
		col := relation.NewColumn(sp.colName, sp.kind, sp.domain)
		t := relation.NewTable(sp.name, col)
		t.Parent = "title"
		for ti := 0; ti < titleRows; ti++ {
			if rng.Float64() < sp.zeroProb/titlePop[ti] {
				continue
			}
			// Heavy-tailed fanout: 1 + Zipf draw scaled by the mean,
			// multiplied by the title's latent popularity (shared across
			// all child relations) and modulated by the title's kind.
			base := 1 + zipfDraw(rng, int(sp.meanFan*4)+2, sp.skew)
			if titleKinds[ti] >= 4 && base > 1 {
				base = 1 + base/2
			}
			base = int(float64(base)*titlePop[ti] + 0.5)
			if base < 1 {
				base = 1
			}
			for c := 0; c < base; c++ {
				// Child attribute correlated with parent kind and year.
				center := float64(titleKinds[ti]) / 6 * float64(sp.domain-1)
				spread := float64(sp.domain) / 6
				v := clampedNormal(rng, center+float64(titleYears[ti]%7), spread, sp.domain)
				col.Append(int32(v))
				t.FK = append(t.FK, int64(ti))
			}
		}
		tables = append(tables, t)
	}
	return relation.MustSchema(tables...)
}

// TPCH generates a TPC-H-flavoured depth-2 chain: customer ← orders ←
// lineitem (each FK table's parent is the previous one). Unlike the IMDB
// star, join keys nest two levels deep, exercising the recursive
// Group-and-Merge extension. Order priority correlates with the customer
// segment, and lineitem attributes with the order's priority — correlation
// flows down the chain.
func TPCH(seed int64, customers int) *relation.Schema {
	rng := rand.New(rand.NewSource(seed))

	segment := relation.NewColumn("mktsegment", relation.Categorical, 5)
	balance := relation.NewColumn("acctbal_bucket", relation.Numeric, 50)
	custSeg := make([]int, customers)
	for i := 0; i < customers; i++ {
		seg := zipfDraw(rng, 5, 1.2)
		custSeg[i] = seg
		segment.Append(int32(seg))
		balance.Append(int32(clampedNormal(rng, 12+float64(seg)*7, 8, 50)))
	}
	customer := relation.NewTable("customer", segment, balance)

	priority := relation.NewColumn("orderpriority", relation.Categorical, 5)
	status := relation.NewColumn("orderstatus", relation.Categorical, 3)
	orders := relation.NewTable("orders", priority, status)
	orders.Parent = "customer"
	orderPrio := []int{}
	for ci := 0; ci < customers; ci++ {
		n := zipfDraw(rng, 8, 1.3)
		if custSeg[ci] >= 3 {
			n += 2
		}
		for o := 0; o < n; o++ {
			prio := clampedNormal(rng, float64(custSeg[ci]), 1.2, 5)
			orderPrio = append(orderPrio, prio)
			priority.Append(int32(prio))
			status.Append(int32(zipfDraw(rng, 3, 1.5)))
			orders.FK = append(orders.FK, int64(ci))
		}
	}

	quantity := relation.NewColumn("quantity", relation.Numeric, 50)
	flags := relation.NewColumn("returnflag", relation.Categorical, 3)
	lineitem := relation.NewTable("lineitem", quantity, flags)
	lineitem.Parent = "orders"
	for oi := 0; oi < orders.NumRows(); oi++ {
		n := 1 + zipfDraw(rng, 7, 1.25)
		for li := 0; li < n; li++ {
			quantity.Append(int32(clampedNormal(rng, 10+float64(orderPrio[oi])*5, 8, 50)))
			flags.Append(int32(zipfDraw(rng, 3, 1.8)))
			lineitem.FK = append(lineitem.FK, int64(oi))
		}
	}
	return relation.MustSchema(customer, orders, lineitem)
}
