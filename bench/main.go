// Command bench is the repo's benchmark: five seeded workloads driven
// over loopback HTTP against in-process blud servers and fleets, eight
// end-to-end numbers per workload, and a traced run that gives the
// per-layer numbers. See README.md in this directory.
//
//	bash bench/run.sh -seed 1 -o bench/out/run.json          every workload, end to end
//	bash bench/run.sh -seed 1 -trace 1                       plus the traced per-layer pass
//	bash bench/run.sh -workload infer-cold -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"

	"blu/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose numbers were printed but whose outputs
// failed a check.
var errIncorrect = errors.New("an output check failed")

// report is the -o file: the environment and one result per workload.
type report struct {
	Env       environment `json:"env"`
	Workloads []*result   `json:"workloads"`
}

type environment struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitDescribe string  `json:"git_describe,omitempty"`
	Seed        uint64  `json:"seed"`
	WindowS     float64 `json:"window_s"`
	Clients     int     `json:"clients"`
	Short       bool    `json:"short,omitempty"`
	// Degraded marks a 1-CPU host: clients and servers timeslice one
	// core there, so the numbers measure overhead, not the system.
	Degraded bool `json:"degraded,omitempty"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload and end with the driver's one-line JSON result (default: all)")
		seed         = fs.Uint64("seed", 1, "the only source of randomness")
		seconds      = fs.Float64("seconds", 10, "length of the timed window")
		trace        = fs.Int("trace", 0, "1: traced per-layer pass (with -workload: only that)")
		outFile      = fs.String("o", "", "write the report as JSON")
		outDir       = fs.String("out", "bench/out", "directory for trace files and durable state")
		short        = fs.Bool("short", false, "smoke mode: 1 s windows, 32-request verification, one set-up")
		compare      = fs.Bool("compare", false, "compare two -o reports: bench -compare A.json B.json")
		corrupt      = fs.Bool("corrupt-expected", false, "self-test: corrupt one expected answer per workload; the run must fail")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, trace: *trace != 0, short: *short, corrupt: *corrupt,
		setups: 3, clients: min(runtime.NumCPU(), 4), outDir: *outDir,
	}
	if cfg.short {
		cfg.seconds, cfg.setups = 1, 1
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	obs.Enable()

	if *workloadName != "" {
		sp := findSpec(*workloadName)
		if sp == nil {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		return runForDriver(sp, cfg, stdout)
	}

	rep := &report{Env: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitDescribe: obs.GitDescribe(), Seed: cfg.seed, WindowS: cfg.seconds, Clients: cfg.clients,
		Short: cfg.short, Degraded: runtime.NumCPU() == 1,
	}}
	incorrect := false
	for i := range specs {
		res, err := runEndToEnd(&specs[i], cfg)
		if err != nil {
			return err
		}
		printMetrics(stdout, res.Name, res.EndToEnd)
		if cfg.trace {
			tr, err := runTraced(&specs[i], cfg)
			if err != nil {
				return err
			}
			printMetrics(stdout, res.Name, tr.PerLayer)
			res.PerLayer, res.Shares, res.TraceFile = tr.PerLayer, tr.Shares, tr.TraceFile
			res.Attempted += tr.Attempted
			res.Failed += tr.Failed
			if res.FirstError == "" {
				res.FirstError = tr.FirstError
			}
			res.Correct = res.Correct && tr.Correct
		}
		if !res.Correct {
			incorrect = true
			fmt.Fprintf(stdout, "%s INCORRECT: %d of %d failed; first: %s\n", res.Name, res.Failed, res.Attempted, res.FirstError)
		}
		rep.Workloads = append(rep.Workloads, res)
	}
	if *outFile != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runForDriver runs one workload in one mode and ends standard output
// with the one-line JSON object the benchmark driver reads.
func runForDriver(sp *spec, cfg *config, stdout io.Writer) error {
	runOne, defs := runEndToEnd, endToEnd
	if cfg.trace {
		runOne, defs = runTraced, perLayer
	}
	res, err := runOne(sp, cfg)
	if err != nil {
		return err
	}
	got := res.EndToEnd
	if cfg.trace {
		got = res.PerLayer
	}
	printMetrics(stdout, res.Name, got)
	if res.FirstError != "" {
		fmt.Fprintf(stdout, "%s first failure: %s\n", res.Name, res.FirstError)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{got[d.name].Value, d.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(w io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
}
