package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"blu/internal/obs"
	"blu/internal/rng"
)

func generated(sp *spec, seed uint64) workload {
	w := sp.make()
	w.generate(rng.New(seed).Split(sp.name), true)
	return w
}

// TestGeneratorIsSeededAndAccepted pins the closed generator: equal
// seeds give byte-equal pools, different seeds do not, and a fresh
// server answers 200 to the generated bodies.
func TestGeneratorIsSeededAndAccepted(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			w := generated(sp, 11)
			a, b, c := digestRequests(w.pools()...), digestRequests(generated(sp, 11).pools()...), digestRequests(generated(sp, 12).pools()...)
			if a != b {
				t.Fatalf("seed 11 gave digests %016x and %016x", a, b)
			}
			if a == c {
				t.Fatalf("seeds 11 and 12 gave the same digest %016x", a)
			}
			s, err := w.start(filepath.Join(t.TempDir(), "state"))
			if err != nil {
				t.Fatal(err)
			}
			defer s.stop()
			s.bind(w.pools())
			cl := newClient()
			defer cl.close()
			for _, pool := range w.pools() {
				// A stride keeps the big pools inside a unit test's budget;
				// it still touches every size, cell and session.
				step := 1 + len(pool)/48
				for k := 0; k < len(pool); k += step {
					rs, err := cl.send(&pool[k], false)
					if err != nil || rs.status != 200 {
						t.Fatalf("%s", describeFailure(&pool[k], &rs, err))
					}
				}
			}
		})
	}
}

// TestCorruptedExpectationFails: flipping one expected answer must
// surface as a failed verification on every workload.
func TestCorruptedExpectationFails(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		cfg := &config{seed: 5, short: true, corrupt: true, clients: 2, outDir: t.TempDir()}
		p, err := prepare(sp, cfg, stateDir(cfg, sp.name, 0))
		if err != nil {
			t.Fatal(err)
		}
		if p.failed != 1 {
			t.Errorf("%s: %d verification failures with one corrupted expectation, want 1 (%s)", sp.name, p.failed, p.firstErr)
		}
		if err := p.close(); err != nil {
			t.Error(err)
		}
	}
	if err := run([]string{"-short", "-corrupt-expected", "-workload", "observe-ingest", "-out", t.TempDir()}, &bytes.Buffer{}); !errors.Is(err, errIncorrect) {
		t.Fatalf("corrupted run returned %v, want errIncorrect", err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the tables in
// the code equal, and both inside the contract's caps.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) || len(specs) < 2 || len(specs) > 8 {
		t.Fatalf("%d workloads in the file, %d in the code, want equal and 2..8", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: file has %q / %q, code has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q breaks the naming contract", w.Name)
		}
	}
	check := func(kind string, file []benchmarkMetric, code []metricDef, cap int, bounded bool) {
		if len(file) != len(code) || len(code) < 1 || len(code) > cap {
			t.Fatalf("%s: %d metrics in the file, %d in the code, want equal and 1..%d", kind, len(file), len(code), cap)
		}
		seen := map[string]bool{}
		for i, m := range file {
			d := code[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: file has %+v, code has %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("%s: name %q is malformed or repeated", kind, m.Name)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %q: bound presence is wrong", kind, m.Name)
			} else if bounded && (*m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %q: bound %v in the file, %v in the code, want equal and in (0, 0.25]", kind, m.Name, *m.Bound, d.bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, 16, true)
	check("per_layer", bf.PerLayer, perLayer, 128, false)
	if endToEnd[0].name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
}

// TestShortSmoke runs every workload end to end in -short mode and
// checks the report is complete and clean.
func TestShortSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var stdout bytes.Buffer
	if err := run([]string{"-short", "-seed", "3", "-o", out, "-out", dir}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Env.NProc < 1 || rep.Env.GOMAXPROCS < 1 || rep.Env.GoVersion == "" || rep.Env.Seed != 3 ||
		rep.Env.WindowS != 1 || rep.Env.Clients < 1 || rep.Env.Degraded != (rep.Env.NProc == 1) {
		t.Errorf("environment record is incomplete: %+v", rep.Env)
	}
	if len(rep.Workloads) != len(specs) {
		t.Fatalf("%d workloads reported, want %d", len(rep.Workloads), len(specs))
	}
	for i, r := range rep.Workloads {
		if r.Name != specs[i].name || !r.Correct || r.Attempted < 1 {
			t.Errorf("workload %d: %s correct=%v attempted=%d (%s)", i, r.Name, r.Correct, r.Attempted, r.FirstError)
		}
		for _, d := range endToEnd {
			m, ok := r.EndToEnd[d.name]
			if !ok || m.Unit != d.unit || m.Value <= 0 {
				t.Errorf("%s %s = %+v, want a positive value in %s", r.Name, d.name, m, d.unit)
			}
		}
		if m, ok := r.EndToEnd["fail_ratio"]; !ok || m.Value != 0 {
			t.Errorf("%s fail_ratio = %+v, want 0", r.Name, m)
		}
		if r.Obs == nil || r.Obs.Counters["serve_requests_total"] == 0 {
			t.Errorf("%s has no counter snapshot of its own", r.Name)
		}
	}
	checkWorkloadClaims(t, rep)
}

// checkWorkloadClaims reads each workload's own counter snapshot: the
// cold workload never hits, the hot one never solves, the refresh loop
// invalidates once per observe and never hits.
func checkWorkloadClaims(t *testing.T, rep *report) {
	t.Helper()
	snap := func(name string) obs.Snapshot {
		for _, r := range rep.Workloads {
			if r.Name == name && r.Obs != nil {
				return *r.Obs
			}
		}
		t.Fatalf("no snapshot for %s", name)
		return obs.Snapshot{}
	}
	if c := snap("infer-cold").Counters; c["serve_cache_hit_total"] != 0 || c["blueprint_infer_total"] == 0 {
		t.Errorf("infer-cold: %d cache hits, %d solves", c["serve_cache_hit_total"], c["blueprint_infer_total"])
	}
	if c := snap("infer-hot-routed").Counters; c["blueprint_infer_total"] != 0 || c["serve_cache_miss_total"] != 0 || c["fleet_routed_total"] == 0 {
		t.Errorf("infer-hot-routed: %d solves, %d misses, %d routed", c["blueprint_infer_total"], c["serve_cache_miss_total"], c["fleet_routed_total"])
	}
	if c := snap("refresh-routed").Counters; c["serve_cache_hit_total"] != 0 || c["serve_invalidation_total"] == 0 || c["persist_wal_appends_total"] == 0 {
		t.Errorf("refresh-routed: %d hits, %d invalidations, %d WAL appends", c["serve_cache_hit_total"], c["serve_invalidation_total"], c["persist_wal_appends_total"])
	}
	if c := snap("observe-ingest").Counters; c["serve_infer_total"] != 0 || c["persist_wal_appends_total"] == 0 {
		t.Errorf("observe-ingest: %d infers, %d WAL appends", c["serve_infer_total"], c["persist_wal_appends_total"])
	}
	if c := snap("schedule-subframe").Counters; c["serve_schedule_total"] == 0 || c["blueprint_infer_total"] != 0 {
		t.Errorf("schedule-subframe: %d schedules, %d solves", c["serve_schedule_total"], c["blueprint_infer_total"])
	}
}

// TestTracedShort runs the traced pass on a routed and a durable direct
// workload: every per-layer metric is reported and the span file holds
// well-formed trees (write refuses a child that leaves its parent).
func TestTracedShort(t *testing.T) {
	for _, name := range []string{"refresh-routed", "observe-ingest"} {
		dir := t.TempDir()
		var stdout bytes.Buffer
		if err := run([]string{"-short", "-trace", "1", "-workload", name, "-out", dir}, &stdout); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
				Unit  string  `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not the result object: %v", name, err)
		}
		if !last.Correct || len(last.Metrics) != len(perLayer) {
			t.Errorf("%s: correct=%v with %d metrics, want %d", name, last.Correct, len(last.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			if m, ok := last.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s missing or in %q", name, d.name, m.Unit)
			}
		}
		if v := last.Metrics["process.trace_overhead_ratio"].Value; v <= 0 {
			t.Errorf("%s: trace overhead ratio %v", name, v)
		}
		data, err := os.ReadFile(filepath.Join(dir, "trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf struct {
			Samples int         `json:"samples"`
			Spans   []traceSpan `json:"spans"`
		}
		if err := json.Unmarshal(data, &tf); err != nil || tf.Samples == 0 || len(tf.Spans) == 0 {
			t.Fatalf("%s: trace file has %d samples, %d spans (%v)", name, tf.Samples, len(tf.Spans), err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "state-*")); len(left) != 0 {
			t.Errorf("%s: state directories left behind: %v", name, left)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops float64, slices []float64) *report {
		r := &result{Name: "w", EndToEnd: map[string]metric{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.name] = metric{Value: 1, Unit: d.unit}
		}
		r.EndToEnd["ops_per_s"] = metric{Value: ops, Unit: "1/s", Slices: slices}
		return &report{Workloads: []*result{r}}
	}
	write := func(name string, r *report) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 99, 100, 100}
	a := write("a.json", mk(100, steady))
	for _, tc := range []struct {
		name    string
		b       *report
		verdict string
		fails   bool
	}{
		{"same", mk(100, steady), "ok", false},
		{"slower", mk(80, []float64{80, 81, 79, 80, 80}), "regressed", true},
		{"noisy", mk(80, []float64{60, 100, 80, 120, 70}), "unresolved", false},
	} {
		var out bytes.Buffer
		err := compareReports(a, write("b.json", tc.b), &out)
		if (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
		}
		row := ""
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "ops_per_s") {
				row = line
			}
		}
		if !strings.HasSuffix(row, tc.verdict) {
			t.Errorf("%s: ops_per_s row %q, want verdict %s", tc.name, row, tc.verdict)
		}
	}
}
