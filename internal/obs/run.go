package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"os"
	"sync/atomic"
)

// A RunID is the correlation key of one pipeline invocation: the CLIs
// generate one per run and stamp it into the trace root ("run_id" attr),
// the event ring, the Prometheus run-info family, the JSONL run log, and
// the benchmark reports, so artifacts from the same run can be joined
// offline (cmd/samreport does exactly that).

// runSalt breaks ties between IDs minted by the same process when the
// entropy source is unavailable.
var runSalt atomic.Uint64

// NewRunID returns a fresh 16-hex-char run identifier. IDs come from the
// OS entropy source; if that fails (it realistically never does) the ID
// falls back to pid ⊕ a process-local counter, still unique within a
// machine's concurrent runs for correlation purposes.
func NewRunID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:], uint64(os.Getpid())<<32^runSalt.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// RunInfoMetric is the name of the build-info-style identity family: a
// constant-1 gauge whose labels carry the run ID and build metadata, the
// idiom Prometheus uses to join a scrape to out-of-band artifacts.
const RunInfoMetric = "sam_run_info"

// runInfoLabels is the label schema of RunInfoMetric, in render order.
var runInfoLabels = []string{"run_id", "go_version", "goos", "goarch", "commit"}

// StampRunInfo publishes sam_run_info{run_id=…,go_version=…,…} 1 into r.
// Safe on a nil registry (no-op via the detached-vector contract).
func StampRunInfo(r *Registry, runID string, m Meta) {
	r.GaugeVec(RunInfoMetric, runInfoLabels...).
		With(runID, m.GoVersion, m.GOOS, m.GOARCH, m.Commit).Set(1)
}

// RunIDFromFamilies extracts the run ID a metrics payload was stamped
// with: the run_id label of the first sam_run_info sample. Empty when the
// family is absent.
func RunIDFromFamilies(fams []PromFamily) string {
	for i := range fams {
		if fams[i].Name != RunInfoMetric {
			continue
		}
		for _, s := range fams[i].Samples {
			if id := s.Label("run_id"); id != "" {
				return id
			}
		}
	}
	return ""
}
