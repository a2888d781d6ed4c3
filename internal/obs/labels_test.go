package obs

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// scrape renders r through WritePrometheus, parses the text back, and
// returns every sample's value under its series key: the sample name,
// then its labels as {k="v",...} in exposition order.
func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	fams, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.Bytes())
	}
	out := map[string]float64{}
	for _, f := range fams {
		for _, s := range f.Samples {
			key := s.Name
			if len(s.Labels) > 0 {
				pairs := make([]string, len(s.Labels))
				for i, l := range s.Labels {
					pairs[i] = l.Name + `="` + l.Value + `"`
				}
				key += "{" + strings.Join(pairs, ",") + "}"
			}
			out[key] = s.Value
		}
	}
	return out
}

// TestLabeledVectors pins the family behavior: children are keyed by the
// full label tuple, repeat With calls return the same handle, and the
// exposition renders each child under its labels.
func TestLabeledVectors(t *testing.T) {
	r := NewRegistry()

	c := r.CounterVec("req_total", "table", "phase")
	c.With("users", "merge").Add(3)
	c.With("users", "weight").Add(2)
	c.With("orders", "merge").Inc()
	if c.With("users", "merge") != c.With("users", "merge") {
		t.Fatal("repeat With returned different counters")
	}
	if got := c.With("users", "merge").Value(); got != 3 {
		t.Fatalf("users/merge = %d, want 3", got)
	}

	g := r.GaugeVec("mass", "table")
	g.With("users").Set(7.5)

	h := r.HistogramVec("lat", ExpBuckets(0.001, 10, 4), "phase")
	h.With("sample").Observe(0.05)
	h.With("sample").Observe(0.5)

	got := scrape(t, r)
	for key, want := range map[string]float64{
		`req_total{table="users",phase="merge"}`:  3,
		`req_total{table="users",phase="weight"}`: 2,
		`req_total{table="orders",phase="merge"}`: 1,
		`mass{table="users"}`:                     7.5,
		`lat_count{phase="sample"}`:               2,
		`lat_sum{phase="sample"}`:                 0.55,
	} {
		if got[key] != want {
			t.Fatalf("%s = %v, want %v; scrape: %v", key, got[key], want, got)
		}
	}

	// First registration's label names win, like Histogram bounds.
	if r.CounterVec("req_total", "other", "names") != c {
		t.Fatal("second CounterVec registration returned a new family")
	}
}

// TestLabeledVectorCardinalityPanics pins that a wrong label-value count
// is a programming error, not a silent misrecord.
func TestLabeledVectorCardinalityPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("With with one value for two labels did not panic")
		}
	}()
	v.With("only-one")
}

// TestLabeledVectorsConcurrent hammers child creation and updates across
// all three vector kinds while Prometheus exposition runs concurrently —
// the data-race gate for the labeled path (run with -race). Counter and
// histogram totals must come out exact in the final scrape.
func TestLabeledVectorsConcurrent(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hits_total", "worker", "kind")
	gv := r.GaugeVec("level", "worker")
	hv := r.HistogramVec("lat", ExpBuckets(1e-6, 4, 10), "worker")

	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w%4) // shared children across goroutines
			c := cv.With(id, "write")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				cv.With(id, "read").Inc() // unresolved lookup path
				gv.With(id).Set(float64(i))
				hv.With(id).Observe(float64(i%50) * 1e-5)
			}
		}(w)
	}
	// Concurrent readers: exposition while children churn.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := WritePrometheus(discard{}, r); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	got := scrape(t, r)
	var total, observed float64
	for w := 0; w < 4; w++ {
		id := fmt.Sprintf("w%d", w)
		total += got[`hits_total{worker="`+id+`",kind="write"}`] + got[`hits_total{worker="`+id+`",kind="read"}`]
		observed += got[`lat_count{worker="`+id+`"}`]
	}
	if want := float64(2 * workers * perWorker); total != want {
		t.Fatalf("labeled counter total = %v, want %v", total, want)
	}
	if want := float64(workers * perWorker); observed != want {
		t.Fatalf("labeled histogram count = %v, want %v", observed, want)
	}
}

// discard is an io.Writer that drops everything (avoids importing io just
// for the benchmark-style reader loop).
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
