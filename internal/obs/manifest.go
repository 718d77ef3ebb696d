package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// PhaseTiming is one named phase of a run (an experiment, a pipeline
// stage) with its wall-clock duration.
type PhaseTiming struct {
	Name       string  `json:"name"`
	Detail     string  `json:"detail,omitempty"`
	DurationMS float64 `json:"duration_ms"`
}

// Manifest is the structured record a CLI writes for one run: what ran
// (tool, args, config, seed, code version), when and how long each
// phase took, and the final metric snapshot. Experiment output becomes
// self-describing: the manifest alone reconstructs what produced it.
type Manifest struct {
	Tool        string        `json:"tool"`
	Args        []string      `json:"args,omitempty"`
	Config      any           `json:"config,omitempty"`
	Seed        uint64        `json:"seed"`
	GitDescribe string        `json:"git_describe"`
	GoVersion   string        `json:"go_version"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Hostname    string        `json:"hostname,omitempty"`
	StartedAt   time.Time     `json:"started_at"`
	FinishedAt  time.Time     `json:"finished_at"`
	WallMS      float64       `json:"wall_ms"`
	Phases      []PhaseTiming `json:"phases,omitempty"`
	Metrics     Snapshot      `json:"metrics"`
}

// NewManifest starts a manifest for the given tool invocation, stamping
// the start time and the build/host identity.
func NewManifest(tool string, args []string) *Manifest {
	host, _ := os.Hostname()
	return &Manifest{
		Tool:        tool,
		Args:        args,
		GitDescribe: GitDescribe(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Hostname:    host,
		StartedAt:   time.Now().UTC(),
	}
}

// AddPhase appends one completed phase; on a nil manifest (a run
// without -manifest) it does nothing.
func (m *Manifest) AddPhase(name, detail string, d time.Duration) {
	if m == nil {
		return
	}
	m.Phases = append(m.Phases, PhaseTiming{
		Name:       name,
		Detail:     detail,
		DurationMS: float64(d) / float64(time.Millisecond),
	})
}

// Finish stamps the end time and captures the metric snapshot.
func (m *Manifest) Finish() {
	m.FinishedAt = time.Now().UTC()
	m.WallMS = float64(m.FinishedAt.Sub(m.StartedAt)) / float64(time.Millisecond)
	m.Metrics = Snap()
}

// Write finishes the manifest (if not already finished) and writes it
// as indented JSON.
func (m *Manifest) Write(path string) error {
	if m.FinishedAt.IsZero() {
		m.Finish()
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal manifest: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks the invariants every emitted manifest satisfies;
// `bluctl manifest` uses it to gate CI on manifest integrity.
func (m *Manifest) Validate() error {
	switch {
	case m.Tool == "":
		return errors.New("manifest: empty tool")
	case m.GoVersion == "":
		return errors.New("manifest: empty go_version")
	case m.StartedAt.IsZero() || m.FinishedAt.IsZero():
		return errors.New("manifest: missing timestamps")
	case m.FinishedAt.Before(m.StartedAt):
		return errors.New("manifest: finished before started")
	case m.WallMS < 0:
		return errors.New("manifest: negative wall_ms")
	}
	for _, p := range m.Phases {
		if p.Name == "" {
			return errors.New("manifest: phase with empty name")
		}
		if p.DurationMS < 0 {
			return fmt.Errorf("manifest: phase %q has negative duration", p.Name)
		}
	}
	return nil
}

// GitDescribe returns `git describe --always --dirty --tags` for the
// working directory, or "unknown" outside a repo / without git. The
// subprocess runs once per manifest (cold path only).
func GitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(out))
	if s == "" {
		return "unknown"
	}
	return s
}
