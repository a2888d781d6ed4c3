package obs

import (
	"runtime"
	"runtime/debug"
)

// Meta identifies the environment a run or benchmark executed in. Reports
// embed it so recorded numbers stay interpretable after toolchain or
// hardware changes.
type Meta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit,omitempty"` // VCS revision when built from a checkout
}

// BuildMeta captures the current process's build and runtime environment.
// The commit comes from the binary's embedded build info (present when
// built inside a version-controlled checkout), not from invoking git.
func BuildMeta() Meta {
	m := Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if rev != "" && modified == "true" {
			rev += "+dirty"
		}
		m.Commit = rev
	}
	return m
}

// String renders the metadata on one line — the CLIs' -version output.
func (m Meta) String() string {
	s := m.GoVersion + " " + m.GOOS + "/" + m.GOARCH
	if m.Commit != "" {
		s += " " + m.Commit
	}
	return s
}
