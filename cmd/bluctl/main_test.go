package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blu/internal/obs"
)

func writeFile(t *testing.T, dir, name, data string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestProbe(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Blu-Cache", "hit")
		w.Write([]byte("answer"))
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	dir := t.TempDir()
	same := writeFile(t, dir, "same.bin", "answer")
	other := writeFile(t, dir, "other.bin", "answeR")
	saved := filepath.Join(dir, "saved.bin")

	for _, tc := range []struct {
		name  string
		flags []string
		fail  string
	}{
		{"pass", []string{"-require-cache", "hit", "-require-body-file", same, "-save-body", saved}, ""},
		{"status", []string{"-require-status", "201"}, "status 200, want 201"},
		{"cache", []string{"-require-cache", "miss"}, `X-Blu-Cache "hit", want "miss"`},
		{"body", []string{"-require-body-file", other}, "body differs"},
		{"no addr", []string{"-addr", ""}, "-addr is required"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"probe", "-addr", addr, "-path", "/v1/infer"}, tc.flags...))
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("probe failed: %v", err)
			case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
				t.Fatalf("err = %v, want one containing %q", err, tc.fail)
			}
		})
	}
	if got, err := os.ReadFile(saved); err != nil || string(got) != "answer" {
		t.Fatalf("-save-body wrote %q (%v)", got, err)
	}
}

func TestManifest(t *testing.T) {
	dir := t.TempDir()
	now := time.Now().UTC()
	data, err := json.Marshal(obs.Manifest{
		Tool: "bluctl-test", GoVersion: "go", StartedAt: now, FinishedAt: now,
		Phases:  []obs.PhaseTiming{{Name: "Serve/infer"}},
		Metrics: obs.Snapshot{Counters: map[string]int64{"nonzero_total": 2, "zero_total": 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	good := writeFile(t, dir, "good.json", string(data))
	invalid := writeFile(t, dir, "invalid.json", `{"tool":"","go_version":"go"}`)

	for _, tc := range []struct {
		name string
		args []string
		fail string
	}{
		{"pass", []string{"-require", "nonzero_total", "-require-phase", "Serve/infer", good}, ""},
		{"invalid", []string{invalid}, "empty tool"},
		{"not json", []string{writeFile(t, dir, "junk.json", "{")}, "junk.json"},
		{"missing counter", []string{"-require", "absent_total", good}, `counter "absent_total" missing`},
		{"zero counter", []string{"-require", "zero_total", good}, `counter "zero_total" is zero`},
		{"missing phase", []string{"-require-phase", "Serve/observe", good}, `phase "Serve/observe" missing`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(append([]string{"manifest"}, tc.args...))
			switch {
			case tc.fail == "" && err != nil:
				t.Fatalf("manifest check failed: %v", err)
			case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
				t.Fatalf("err = %v, want one containing %q", err, tc.fail)
			}
		})
	}
}
