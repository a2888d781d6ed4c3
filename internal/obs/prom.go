package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text format exposition (version 0.0.4), stdlib only, and the
// registry's one rendering. Each family renders under one TYPE line (a
// plain metric is a family without labels); histograms render the full
// _bucket/_sum/_count series with cumulative bucket counts and a closing
// +Inf bucket. Output is deterministic: family names sort lexically and
// labeled children sort by label tuple, so two snapshots of identical
// state serialize byte-identically.

// PromContentType is the Content-Type the /metrics endpoint serves.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// nameRuneOK reports whether r may stand at byte offset i of a metric
// name ([a-zA-Z_:][a-zA-Z0-9_:]*) or, with colon false, of a label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func nameRuneOK(i int, r rune, colon bool) bool {
	return r == '_' || (colon && r == ':') ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
		(i > 0 && r >= '0' && r <= '9')
}

// validName reports whether name is a valid metric name (colon true) or
// label name (colon false).
func validName(name string, colon bool) bool {
	for i, r := range name {
		if !nameRuneOK(i, r, colon) {
			return false
		}
	}
	return name != ""
}

// sanitizeName maps an arbitrary name onto the metric (colon true) or
// label (colon false) name charset; invalid runes become '_'. A valid
// name comes back as is, without allocating.
func sanitizeName(name string, colon bool) string {
	if validName(name, colon) {
		return name
	}
	if name == "" {
		return "_"
	}
	var sb strings.Builder
	for i, r := range name {
		if !nameRuneOK(i, r, colon) {
			r = '_'
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

// formatPromValue renders a sample value; Prometheus spells infinities
// +Inf/-Inf and accepts Go's shortest-round-trip float syntax otherwise.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabelPairs renders {k1="v1",...} from parallel name/value slices,
// optionally appending an le pair; empty input renders as "".
func promLabelPairs(labels, values []string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// writePromHistogram renders one histogram child as its _bucket series
// (cumulative counts per bound, closing with +Inf), _sum and _count. The
// cumulative counts come from one pass over the buckets, so the series
// stays internally consistent (_count == +Inf bucket) while Observe runs.
func writePromHistogram(w io.Writer, name string, labels, values []string, h *Histogram) {
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatPromValue(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabelPairs(labels, values, le), cum)
	}
	pairs := promLabelPairs(labels, values, "")
	fmt.Fprintf(w, "%s_sum%s %s\n", name, pairs, formatPromValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, pairs, cum)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: one TYPE line per family, families sorted by name, children by
// label tuple. A nil registry writes nothing.
func WritePrometheus(w io.Writer, r *Registry) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	// bufio keeps the first write error and Flush reports it.
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.RLock()
		keys := make([]string, 0, len(f.children))
		for k := range f.children {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := f.children[k]
			switch m := c.metric.(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, promLabelPairs(f.labels, c.values, ""), m.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, promLabelPairs(f.labels, c.values, ""), formatPromValue(m.Value()))
			case *Histogram:
				writePromHistogram(bw, f.name, f.labels, c.values, m)
			}
		}
		f.mu.RUnlock()
	}
	return bw.Flush()
}

// PromLabel is one parsed name="value" pair.
type PromLabel struct {
	Name, Value string
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels []PromLabel
	Value  float64
}

// Label returns the sample's value for a label name, or "".
func (s PromSample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// PromFamily is one parsed metric family: a # TYPE declaration plus the
// samples that belong to it (histogram families own their _bucket/_sum/
// _count series). Samples with no preceding TYPE line land in an
// "untyped" family.
type PromFamily struct {
	Name    string
	Type    string
	Samples []PromSample
}

// ParsePrometheus parses and validates text exposition format output —
// the verification half of WritePrometheus, used by the format gate in
// the tests. It enforces metric/label name charsets, label names unique
// within a sample, quoted-and-escaped label values, parseable sample
// values, known TYPE declarations that do not name a series of an earlier
// histogram, and histogram shape: every histogram family must carry _sum,
// _count, a closing +Inf bucket equal to _count, strictly ascending le
// bounds (no le twice in a series), and non-decreasing cumulative bucket
// counts.
func ParsePrometheus(r io.Reader) ([]PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var fams []PromFamily
	index := map[string]int{} // family name -> fams index
	cur := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("obs: prom line %d: malformed TYPE line", lineNo)
				}
				name, typ := fields[2], fields[3]
				if !validName(name, true) {
					return nil, fmt.Errorf("obs: prom line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("obs: prom line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := index[name]; dup {
					return nil, fmt.Errorf("obs: prom line %d: duplicate TYPE for %q", lineNo, name)
				}
				for _, suffix := range histogramSeries {
					base, ok := strings.CutSuffix(name, suffix)
					if i, seen := index[base]; ok && seen && fams[i].Type == "histogram" {
						return nil, fmt.Errorf("obs: prom line %d: TYPE for %q names a series of histogram %q", lineNo, name, base)
					}
				}
				index[name] = len(fams)
				fams = append(fams, PromFamily{Name: name, Type: typ})
				cur = index[name]
			}
			continue // HELP and other comments
		}
		sample, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
		}
		fi := -1
		if cur >= 0 && sampleInFamily(sample.Name, &fams[cur]) {
			fi = cur
		} else if i, ok := index[sample.Name]; ok {
			fi = i
		} else {
			index[sample.Name] = len(fams)
			fams = append(fams, PromFamily{Name: sample.Name, Type: "untyped"})
			fi = index[sample.Name]
		}
		fams[fi].Samples = append(fams[fi].Samples, sample)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == "histogram" {
			if err := checkPromHistogram(&fams[i]); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// sampleInFamily reports whether a sample name belongs to the family:
// exact match, or the _bucket/_sum/_count series of a histogram/summary.
func sampleInFamily(name string, f *PromFamily) bool {
	if name == f.Name {
		return true
	}
	if f.Type == "histogram" || f.Type == "summary" {
		return name == f.Name+"_bucket" || name == f.Name+"_sum" || name == f.Name+"_count"
	}
	return false
}

// parsePromSample parses `name[{labels}] value [timestamp]`.
func parsePromSample(line string) (PromSample, error) {
	var s PromSample
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validName(s.Name, true) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parsePromLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimLeft(rest, " \t")
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("want value [timestamp] after %q, got %q", s.Name, rest)
	}
	v, err := parsePromValue(fields[0])
	if err != nil {
		return s, err
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return s, nil
}

// parsePromLabels parses a {name="value",...} block starting at text[0]
// == '{'; it returns the index one past the closing brace.
func parsePromLabels(text string) (int, []PromLabel, error) {
	var labels []PromLabel
	i := 1 // past '{'
	for {
		for i < len(text) && (text[i] == ' ' || text[i] == '\t') {
			i++
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(text) && text[i] != '=' {
			i++
		}
		if i >= len(text) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		name := strings.TrimSpace(text[start:i])
		if !validName(name, false) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		for _, l := range labels {
			if l.Name == name {
				return 0, nil, fmt.Errorf("repeated label %s", name)
			}
		}
		i++ // past '='
		if i >= len(text) || text[i] != '"' {
			return 0, nil, fmt.Errorf("label %s: value must be quoted", name)
		}
		i++
		var val strings.Builder
		closed := false
		for i < len(text) {
			c := text[i]
			if c == '\\' {
				if i+1 >= len(text) {
					return 0, nil, fmt.Errorf("label %s: dangling escape", name)
				}
				switch text[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %s: bad escape \\%c", name, text[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return 0, nil, fmt.Errorf("label %s: unterminated value", name)
		}
		labels = append(labels, PromLabel{Name: name, Value: val.String()})
		if i < len(text) && text[i] == ',' {
			i++
			continue
		}
		if i < len(text) && text[i] == '}' {
			return i + 1, labels, nil
		}
		return 0, nil, fmt.Errorf("want ',' or '}' after label %s", name)
	}
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN", "nan":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

// checkPromHistogram validates one histogram family's shape per labeled
// child: ascending le bounds, non-decreasing cumulative counts, a +Inf
// bucket, and _count equal to that bucket.
func checkPromHistogram(f *PromFamily) error {
	type series struct {
		cums    []float64
		count   float64
		hasCnt  bool
		hasSum  bool
		hasInf  bool
		infCum  float64
		lastLe  float64
		started bool
	}
	bySeries := map[string]*series{}
	get := func(s PromSample) *series {
		key := ""
		for _, l := range s.Labels {
			if l.Name == "le" {
				continue
			}
			key += l.Name + "\xfe" + l.Value + "\xff"
		}
		sr := bySeries[key]
		if sr == nil {
			sr = &series{}
			bySeries[key] = sr
		}
		return sr
	}
	for _, s := range f.Samples {
		switch s.Name {
		case f.Name + "_bucket":
			sr := get(s)
			leStr := s.Label("le")
			le, err := parsePromValue(leStr)
			if err != nil || math.IsNaN(le) {
				return fmt.Errorf("obs: histogram %s: bad le %q", f.Name, leStr)
			}
			// Strictly ascending bounds, +Inf included: a repeated le,
			// or any bucket after +Inf, is rejected.
			if sr.started && le == sr.lastLe {
				return fmt.Errorf("obs: histogram %s: repeated le %q", f.Name, leStr)
			}
			if sr.started && le < sr.lastLe {
				return fmt.Errorf("obs: histogram %s: le bounds not ascending at %v", f.Name, le)
			}
			sr.started = true
			sr.lastLe = le
			if math.IsInf(le, 1) {
				sr.hasInf = true
				sr.infCum = s.Value
			}
			if n := len(sr.cums); n > 0 && s.Value < sr.cums[n-1] {
				return fmt.Errorf("obs: histogram %s: bucket counts not cumulative at le=%v", f.Name, le)
			}
			sr.cums = append(sr.cums, s.Value)
		case f.Name + "_sum":
			get(s).hasSum = true
		case f.Name + "_count":
			sr := get(s)
			sr.hasCnt = true
			sr.count = s.Value
		case f.Name:
			return fmt.Errorf("obs: histogram %s: bare sample without _bucket/_sum/_count suffix", f.Name)
		}
	}
	for _, sr := range bySeries {
		if !sr.hasInf {
			return fmt.Errorf("obs: histogram %s: missing +Inf bucket", f.Name)
		}
		if !sr.hasSum || !sr.hasCnt {
			return fmt.Errorf("obs: histogram %s: missing _sum or _count", f.Name)
		}
		if sr.count != sr.infCum {
			return fmt.Errorf("obs: histogram %s: _count %v != +Inf bucket %v", f.Name, sr.count, sr.infCum)
		}
	}
	return nil
}
