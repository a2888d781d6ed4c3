package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// PathStat aggregates every span sharing one root-to-span name path
// ("train/epoch/step" — names joined by '/'). Wall and alloc figures come
// in two flavors: Total includes descendants, Self subtracts the direct
// children's totals (clamped at zero, since concurrent children can
// overlap their parent's wall clock).
type PathStat struct {
	Path       string
	Count      int   // spans on this path
	WallUS     int64 // total wall, descendants included
	SelfUS     int64 // wall minus direct children (≥ 0)
	AllocBytes uint64
	SelfAlloc  uint64
	Mallocs    uint64
	GCs        uint32
	Live       int // spans still open when the trace was written
	Depth      int // path depth, root = 0
}

// AnalyzeTrace aggregates raw span records into per-path statistics,
// returned in depth-first tree order (parents before children, siblings
// by first start time). Spans whose parent path is missing aggregate
// under their own name at the root.
func AnalyzeTrace(recs []SpanRecord) []PathStat {
	paths := make(map[int64]string, len(recs))
	firstStart := make(map[string]int64, len(recs))
	stats := make(map[string]*PathStat, len(recs))
	childWall := make(map[int64]int64, len(recs))
	childAlloc := make(map[int64]uint64, len(recs))
	for _, rec := range recs {
		childWall[rec.Parent] += rec.WallUS
		childAlloc[rec.Parent] += rec.AllocBytes
	}
	for _, rec := range recs {
		path := rec.Name
		depth := 0
		if parent, ok := paths[rec.Parent]; ok {
			path = parent + "/" + rec.Name
			depth = strings.Count(path, "/")
		}
		paths[rec.ID] = path
		st := stats[path]
		if st == nil {
			st = &PathStat{Path: path, Depth: depth}
			stats[path] = st
			firstStart[path] = rec.StartUS
		}
		st.Count++
		st.WallUS += rec.WallUS
		st.AllocBytes += rec.AllocBytes
		st.Mallocs += rec.Mallocs
		st.GCs += rec.GCs
		if rec.Live {
			st.Live++
		}
		if self := rec.WallUS - childWall[rec.ID]; self > 0 {
			st.SelfUS += self
		}
		if kids := childAlloc[rec.ID]; rec.AllocBytes > kids {
			st.SelfAlloc += rec.AllocBytes - kids
		}
	}
	out := make([]PathStat, 0, len(stats))
	for _, st := range stats {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Path, out[j].Path
		// Tree order: compare segment by segment, siblings by first start.
		as, bs := strings.Split(a, "/"), strings.Split(b, "/")
		for k := 0; k < len(as) && k < len(bs); k++ {
			pa := strings.Join(as[:k+1], "/")
			pb := strings.Join(bs[:k+1], "/")
			if pa != pb {
				if firstStart[pa] != firstStart[pb] {
					return firstStart[pa] < firstStart[pb]
				}
				return pa < pb
			}
		}
		return len(as) < len(bs)
	})
	return out
}

// WriteTraceTree renders per-path statistics as an indented tree with
// total and self wall time and allocation attribution, as samreport's
// phase-trace section shows it.
func WriteTraceTree(w io.Writer, stats []PathStat) {
	fmt.Fprintf(w, "%-44s %6s %12s %12s %12s %12s\n",
		"span", "count", "total", "self", "alloc", "self-alloc")
	for _, st := range stats {
		name := st.Path
		if i := strings.LastIndex(name, "/"); i >= 0 {
			name = name[i+1:]
		}
		live := ""
		if st.Live > 0 {
			live = " (live)"
		}
		fmt.Fprintf(w, "%-44s %6d %12s %12s %12s %12s%s\n",
			strings.Repeat("  ", st.Depth)+name, st.Count,
			fmtUS(st.WallUS), fmtUS(st.SelfUS),
			fmtBytes(st.AllocBytes), fmtBytes(st.SelfAlloc), live)
	}
}

// TopSpans returns the n paths with the largest self wall time,
// descending (ties broken by path for determinism).
func TopSpans(stats []PathStat, n int) []PathStat {
	out := append([]PathStat(nil), stats...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUS != out[j].SelfUS {
			return out[i].SelfUS > out[j].SelfUS
		}
		return out[i].Path < out[j].Path
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteTopSpans renders the top-N hot spans by self wall time.
func WriteTopSpans(w io.Writer, stats []PathStat, n int) {
	top := TopSpans(stats, n)
	fmt.Fprintf(w, "%-44s %6s %12s %12s\n", "span", "count", "self", "self-alloc")
	for _, st := range top {
		fmt.Fprintf(w, "%-44s %6d %12s %12s\n", st.Path, st.Count, fmtUS(st.SelfUS), fmtBytes(st.SelfAlloc))
	}
}

// PathDelta is one row of a trace diff: the same span path in two traces
// with its wall/alloc deltas. A path present in only one trace reports
// the other side as zero with OnlyIn set.
type PathDelta struct {
	Path         string
	WallA, WallB int64 // total wall µs in trace A / B
	AllocA       uint64
	AllocB       uint64
	CountA       int
	CountB       int
	OnlyIn       string // "a", "b", or "" when present in both
}

// DeltaUS returns WallB − WallA.
func (d PathDelta) DeltaUS() int64 { return d.WallB - d.WallA }

// DeltaAlloc returns AllocB − AllocA (signed).
func (d PathDelta) DeltaAlloc() int64 { return int64(d.AllocB) - int64(d.AllocA) }

// DiffTraces aligns two analyzed traces by span path and reports the
// union of paths sorted by descending absolute wall delta (ties by
// path), so regressions and improvements surface first.
func DiffTraces(a, b []PathStat) []PathDelta {
	byPath := make(map[string]*PathDelta, len(a)+len(b))
	order := make([]string, 0, len(a)+len(b))
	for _, st := range a {
		byPath[st.Path] = &PathDelta{
			Path: st.Path, WallA: st.WallUS, AllocA: st.AllocBytes, CountA: st.Count, OnlyIn: "a",
		}
		order = append(order, st.Path)
	}
	for _, st := range b {
		d := byPath[st.Path]
		if d == nil {
			d = &PathDelta{Path: st.Path, OnlyIn: "b"}
			byPath[st.Path] = d
			order = append(order, st.Path)
		} else {
			d.OnlyIn = ""
		}
		d.WallB = st.WallUS
		d.AllocB = st.AllocBytes
		d.CountB = st.Count
	}
	out := make([]PathDelta, 0, len(order))
	for _, p := range order {
		out = append(out, *byPath[p])
	}
	sort.Slice(out, func(i, j int) bool {
		ai, aj := abs64(out[i].DeltaUS()), abs64(out[j].DeltaUS())
		if ai != aj {
			return ai > aj
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// WriteTraceDiff renders a path-aligned diff of two traces: per-span wall
// and alloc deltas, largest absolute wall change first.
func WriteTraceDiff(w io.Writer, deltas []PathDelta) {
	fmt.Fprintf(w, "%-44s %12s %12s %12s %14s\n", "span", "wall a", "wall b", "Δwall", "Δalloc")
	for _, d := range deltas {
		mark := ""
		switch d.OnlyIn {
		case "a":
			mark = "  [only a]"
		case "b":
			mark = "  [only b]"
		}
		fmt.Fprintf(w, "%-44s %12s %12s %12s %14s%s\n",
			d.Path, fmtUS(d.WallA), fmtUS(d.WallB),
			fmtSignedUS(d.DeltaUS()), fmtSignedBytes(d.DeltaAlloc()), mark)
	}
}

func fmtUS(us int64) string {
	return (time.Duration(us) * time.Microsecond).Round(time.Microsecond).String()
}

func fmtSignedUS(us int64) string {
	if us >= 0 {
		return "+" + fmtUS(us)
	}
	return "-" + fmtUS(-us)
}

func fmtSignedBytes(b int64) string {
	if b >= 0 {
		return "+" + fmtBytes(uint64(b))
	}
	return "-" + fmtBytes(uint64(-b))
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
