package obs

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestManifestRoundTrip(t *testing.T) {
	Reset()
	withEnabled(t, func() {
		GetCounter("test_manifest_counter").Add(42)
		GetGauge("test_manifest_gauge").Set(0.5)
		GetTimer("test_manifest_timer").Record(7 * time.Millisecond)

		m := NewManifest("obstest", []string{"-x", "1"})
		m.Seed = 9
		m.Config = map[string]any{"scale": 0.5}
		m.AddPhase("warmup", "synthetic", 3*time.Millisecond)
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := m.Write(path); err != nil {
			t.Fatal(err)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var got Manifest
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("manifest does not parse: %v", err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("manifest invalid: %v", err)
		}
		// Round-trip: re-marshal and re-parse must reproduce the same
		// manifest (no lossy fields, no NaN/Inf leaking into JSON).
		again, err := json.Marshal(&got)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		var got2 Manifest
		if err := json.Unmarshal(again, &got2); err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if !reflect.DeepEqual(got, got2) {
			t.Error("manifest not stable under a json round-trip")
		}

		if got.Tool != "obstest" || got.Seed != 9 {
			t.Errorf("tool/seed = %q/%d", got.Tool, got.Seed)
		}
		if got.Metrics.Counters["test_manifest_counter"] != 42 {
			t.Errorf("counter snapshot = %v", got.Metrics.Counters)
		}
		if len(got.Phases) != 1 || got.Phases[0].Name != "warmup" {
			t.Errorf("phases = %+v", got.Phases)
		}
		if got.GitDescribe == "" || got.GoVersion == "" {
			t.Error("build identity missing")
		}
	})
}

func TestManifestValidate(t *testing.T) {
	now := time.Now().UTC()
	ok := Manifest{Tool: "x", GoVersion: "go", StartedAt: now, FinishedAt: now}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid manifest rejected: %v", err)
	}
	cases := []Manifest{
		{GoVersion: "go", StartedAt: now, FinishedAt: now},                                       // no tool
		{Tool: "x", GoVersion: "go"},                                                             // no timestamps
		{Tool: "x", GoVersion: "go", StartedAt: now, FinishedAt: now.Add(-time.Second)},          // reversed
		{Tool: "x", GoVersion: "go", StartedAt: now, FinishedAt: now, Phases: []PhaseTiming{{}}}, // unnamed phase
	}
	for i, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid manifest accepted", i)
		}
	}
}

func TestServePprof(t *testing.T) {
	addr, err := servePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
}

// TestRunFlagsWriteManifestAtExit checks the one manifest path every
// command shares: -manifest enables recording, nothing is written
// until Finish, and Finish (called after a server has drained) writes
// a valid manifest that names the tool and carries what the run
// recorded.
func TestRunFlagsWriteManifestAtExit(t *testing.T) {
	Reset()
	defer Disable()
	path := filepath.Join(t.TempDir(), "manifest.json")
	fs := flag.NewFlagSet("obstest", flag.ContinueOnError)
	rf := AddRunFlags(fs)
	args := []string{"-manifest", path}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	man, err := rf.Start(args)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || !Enabled() {
		t.Fatal("-manifest did not start a manifest and enable recording")
	}
	GetCounter("test_runflags_counter").Add(3)
	man.AddPhase("work", "", time.Millisecond)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("manifest written before Finish (stat: %v)", err)
	}
	if err := rf.Finish(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("manifest invalid: %v", err)
	}
	if m.Tool != "obstest" || !reflect.DeepEqual(m.Args, args) {
		t.Errorf("tool/args = %q/%v", m.Tool, m.Args)
	}
	if m.Metrics.Counters["test_runflags_counter"] != 3 || len(m.Phases) != 1 {
		t.Errorf("counters %v, phases %+v", m.Metrics.Counters, m.Phases)
	}
}

// TestRunFlagsWithoutManifest checks that a run without -manifest
// records nothing and writes nothing.
func TestRunFlagsWithoutManifest(t *testing.T) {
	Disable()
	fs := flag.NewFlagSet("obstest", flag.ContinueOnError)
	rf := AddRunFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	man, err := rf.Start(nil)
	if err != nil {
		t.Fatal(err)
	}
	if man != nil || Enabled() {
		t.Fatal("no -manifest, yet a manifest started or recording enabled")
	}
	man.AddPhase("work", "", time.Millisecond)
	if err := rf.Finish(); err != nil {
		t.Fatal(err)
	}
}
