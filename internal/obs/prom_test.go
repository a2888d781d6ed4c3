package obs

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"
)

// buildPromRegistry populates a registry with every metric shape the
// exposition has to render: plain and labeled counters/gauges/histograms,
// awkward label values, and an empty histogram.
func buildPromRegistry() *Registry {
	r := NewRegistry()
	r.Counter("jobs_total").Add(42)
	r.Gauge("temperature").Set(-3.25)
	h := r.Histogram("latency_seconds", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5) // overflow bucket
	r.Histogram("empty_seconds", []float64{1, 2})

	r.CounterVec("gen_tuples_total", "phase").With("sample").Add(100)
	r.CounterVec("gen_tuples_total", "phase").With("merge").Add(7)
	r.GaugeVec("gen_weight_mass", "table", "stage").With(`we"ird\ta
ble`, "before").Set(1.5)
	hv := r.HistogramVec("phase_seconds", []float64{0.1, 10}, "phase")
	hv.With("sample").Observe(0.05)
	hv.With("sample").Observe(3)
	return r
}

// TestWritePrometheusRoundTrip renders a full registry and feeds the
// bytes back through the strict parser — the same gate CI applies to a
// live /metrics fetch.
func TestWritePrometheusRoundTrip(t *testing.T) {
	r := buildPromRegistry()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	fams, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse:\n%s\nerror: %v", text, err)
	}
	byName := map[string]PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	if f := byName["jobs_total"]; f.Type != "counter" || len(f.Samples) != 1 || f.Samples[0].Value != 42 {
		t.Fatalf("jobs_total family: %+v", f)
	}
	if f := byName["temperature"]; f.Type != "gauge" || f.Samples[0].Value != -3.25 {
		t.Fatalf("temperature family: %+v", f)
	}

	tuples := byName["gen_tuples_total"]
	if tuples.Type != "counter" || len(tuples.Samples) != 2 {
		t.Fatalf("gen_tuples_total family: %+v", tuples)
	}
	var sample, merge float64
	for _, s := range tuples.Samples {
		switch s.Label("phase") {
		case "sample":
			sample = s.Value
		case "merge":
			merge = s.Value
		}
	}
	if sample != 100 || merge != 7 {
		t.Fatalf("labeled counters: sample=%v merge=%v", sample, merge)
	}

	// The escaped label value must round-trip to the original string.
	mass := byName["gen_weight_mass"]
	if len(mass.Samples) != 1 || mass.Samples[0].Label("table") != "we\"ird\\ta\nble" {
		t.Fatalf("escaped label round-trip: %+v", mass.Samples)
	}

	// Histogram shape: cumulative buckets, +Inf == _count, sum present.
	lat := byName["latency_seconds"]
	if lat.Type != "histogram" {
		t.Fatalf("latency_seconds type = %s", lat.Type)
	}
	var cums []float64
	var count, sum float64
	for _, s := range lat.Samples {
		switch s.Name {
		case "latency_seconds_bucket":
			cums = append(cums, s.Value)
		case "latency_seconds_count":
			count = s.Value
		case "latency_seconds_sum":
			sum = s.Value
		}
	}
	want := []float64{1, 2, 3, 4} // cumulative over 4 observations, +Inf last
	if len(cums) != len(want) {
		t.Fatalf("bucket series %v, want %v", cums, want)
	}
	for i := range want {
		if cums[i] != want[i] {
			t.Fatalf("bucket series %v, want %v", cums, want)
		}
	}
	if count != 4 || math.Abs(sum-5.555) > 1e-9 {
		t.Fatalf("count=%v sum=%v", count, sum)
	}

	// The empty histogram still renders a complete, valid series.
	if f := byName["empty_seconds"]; f.Type != "histogram" || len(f.Samples) != 5 {
		t.Fatalf("empty histogram family: %+v", f)
	}
}

// TestWritePrometheusDeterministic pins byte-identical output for
// identical registry state.
func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WritePrometheus(&a, buildPromRegistry()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, buildPromRegistry()); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("exposition not deterministic:\n--- a ---\n%s--- b ---\n%s", a.String(), b.String())
	}
}

// TestSanitizeMetricName maps arbitrary registry names onto the
// exposition charset.
func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"ok_name":     "ok_name",
		"with-dash":   "with_dash",
		"9leading":    "_leading",
		"sp ace{x=1}": "sp_ace_x_1_",
		"":            "_",
	}
	for in, want := range cases {
		if got := sanitizeName(in, true); got != want {
			t.Errorf("sanitizeName(%q, true) = %q, want %q", in, got, want)
		}
	}
}

// promRejects are expositions the validator must refuse;
// FuzzParsePrometheus seeds its corpus from them.
var promRejects = map[string]string{
	"bad name":           "1bad 3\n",
	"bad value":          "m abc\n",
	"unquoted label":     "m{l=x} 1\n",
	"unterminated label": "m{l=\"x 1\n",
	"bad type":           "# TYPE m widget\nm 1\n",
	"duplicate type":     "# TYPE m counter\n# TYPE m counter\nm 1\n",
	"hist no inf":        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	"hist count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n" +
		"h_sum 1\nh_count 3\n",
	"hist not cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
		"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
	"hist le not ascending": "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\n" +
		"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"repeated label": "c{a_b=\"1\",a_b=\"2\"} 1\n",
	"hist repeated le": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"1\"} 1\n" +
		"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"hist two inf buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\n" +
		"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	"hist bucket after inf": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_bucket{le=\"2\"} 1\n" +
		"h_sum 1\nh_count 1\n",
	"type names a hist series": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n" +
		"# TYPE h_sum counter\nh_sum 2\n",
}

// TestParsePrometheusRejects covers the validator's failure modes so the
// CI gate cannot pass vacuously.
func TestParsePrometheusRejects(t *testing.T) {
	for name, text := range promRejects {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted\n%s", name, text)
		}
	}

	good := "# TYPE m counter\nm{l=\"a\"} 1 1700000000\nm{l=\"b\"} 2\n"
	fams, err := ParsePrometheus(strings.NewReader(good))
	if err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 2 {
		t.Fatalf("parsed families: %+v", fams)
	}
}

// TestPrometheusRoundTripNonFinite pins the exposition of the IEEE
// specials: gauges holding NaN and ±Inf must render as the spec spellings
// and parse back to the same values.
func TestPrometheusRoundTripNonFinite(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g_nan").Set(math.NaN())
	r.Gauge("g_posinf").Set(math.Inf(1))
	r.Gauge("g_neginf").Set(math.Inf(-1))

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"g_nan NaN", "g_posinf +Inf", "g_neginf -Inf"} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}

	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			vals[s.Name] = s.Value
		}
	}
	if !math.IsNaN(vals["g_nan"]) {
		t.Fatalf("g_nan parsed as %v, want NaN", vals["g_nan"])
	}
	if !math.IsInf(vals["g_posinf"], 1) {
		t.Fatalf("g_posinf parsed as %v, want +Inf", vals["g_posinf"])
	}
	if !math.IsInf(vals["g_neginf"], -1) {
		t.Fatalf("g_neginf parsed as %v, want -Inf", vals["g_neginf"])
	}
}

// TestPrometheusRoundTripEscapedLabels drives label values through every
// escape the exposition format defines — backslash, double quote, and
// newline — and checks they parse back verbatim.
func TestPrometheusRoundTripEscapedLabels(t *testing.T) {
	values := []string{
		`back\slash`,
		`quo"te`,
		"new\nline",
		`all\three" of\nthem` + "\n\\",
		`trailing\`,
	}
	r := NewRegistry()
	vec := r.CounterVec("escapes_total", "v")
	for i, v := range values {
		vec.With(v).Add(int64(i + 1))
	}

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
	}
	got := map[string]float64{}
	for _, f := range fams {
		if f.Name != "escapes_total" {
			continue
		}
		for _, s := range f.Samples {
			got[s.Label("v")] = s.Value
		}
	}
	for i, v := range values {
		val, ok := got[v]
		if !ok {
			t.Fatalf("label value %q lost in round trip (got %q)", v, keysOf(got))
		}
		if val != float64(i+1) {
			t.Fatalf("label value %q carries %v, want %d", v, val, i+1)
		}
	}
}

func keysOf(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
