// Command blutrace generates, inspects, and combines channel/
// interference trace files (the Section 4.2 emulation methodology),
// and infers the interference blueprint from one.
//
// Usage:
//
//	blutrace gen -o out.json [-ues 8] [-hts 12] [-subframes 30000] [-seed 1] [-duty 0.35]
//	blutrace info trace.json
//	blutrace combine-ues -o big.json a.json b.json [c.json ...]
//	blutrace combine-ht -o dense.json base.json extra.json [...]
//	blutrace infer [-seed n] [-tol f] [-parallel n] [-mcmc] [-chains n]
//	               [-manifest file] [-pprof addr] trace.json
//
// infer replays the trace, estimates the pair-wise client access
// distributions from the access outcomes, runs BLU's deterministic
// inference (and optionally the MCMC baseline), and prints both
// topologies with the exact-edge-set accuracy metric of Section 4.2.2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"blu/internal/blueprint"
	"blu/internal/mcmc"
	"blu/internal/netsim"
	"blu/internal/obs"
	"blu/internal/rng"
	"blu/internal/sim"
	"blu/internal/trace"
	"blu/internal/wifi"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blutrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: blutrace <gen|info|combine-ues|combine-ht|infer> ...")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:])
	case "info":
		return infoCmd(args[1:])
	case "combine-ues":
		return combineCmd(args[1:], trace.CombineUEs)
	case "combine-ht":
		return combineCmd(args[1:], func(ts ...*trace.Trace) (*trace.Trace, error) {
			if len(ts) < 2 {
				return nil, fmt.Errorf("combine-ht needs a base and at least one extra trace")
			}
			return trace.CombineInterference(ts[0], ts[1:]...)
		})
	case "infer":
		return inferCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func genCmd(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("o", "trace.json", "output file")
	ues := fs.Int("ues", 8, "number of UEs")
	hts := fs.Int("hts", 12, "number of WiFi stations")
	subframes := fs.Int("subframes", 30000, "trace length in subframes")
	seed := fs.Uint64("seed", 1, "random seed")
	duty := fs.Float64("duty", 0.35, "mean hidden-terminal airtime target")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// NewTestbedScenario divides by the UE count and sizes slices by
	// both counts before sim.New checks anything.
	switch {
	case *ues < 1 || *ues > blueprint.MaxClients:
		return fmt.Errorf("-ues must be in [1, %d], got %d", blueprint.MaxClients, *ues)
	case *hts < 0:
		return fmt.Errorf("-hts must be >= 0, got %d", *hts)
	case *subframes < 1:
		return fmt.Errorf("-subframes must be >= 1, got %d", *subframes)
	case !(*duty > 0 && *duty < 1):
		return fmt.Errorf("-duty must be in (0, 1), got %v", *duty)
	}
	r := rng.New(*seed)
	stations := make([]wifi.Station, *hts)
	for k := range stations {
		target := *duty * (0.6 + 0.8*r.Float64())
		if target > 0.9 {
			target = 0.9
		}
		stations[k].Traffic = wifi.DutyCycle{Target: target}
		stations[k].Rate = wifi.RateForSNR(12 + 14*r.Float64())
	}
	cell, err := sim.New(sim.Config{
		Scenario:  sim.NewTestbedScenario(*ues, *hts, *seed),
		Stations:  stations,
		Subframes: *subframes,
		Seed:      r.Uint64(),
	})
	if err != nil {
		return err
	}
	tr := cell.Export(fmt.Sprintf("gen ues=%d hts=%d seed=%d", *ues, *hts, *seed))
	if err := tr.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d UEs, %d stations, %d subframes, ground truth %v\n",
		*out, tr.NumUE, len(tr.Interference), tr.Subframes, tr.GroundTruth())
	return nil
}

func infoCmd(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: blutrace info <trace.json>")
	}
	tr, err := trace.Load(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("label:      %s\n", tr.Label)
	fmt.Printf("ues:        %d\n", tr.NumUE)
	fmt.Printf("subframes:  %d (%.1f s)\n", tr.Subframes, float64(tr.Subframes)/1000)
	fmt.Printf("stations:   %d\n", len(tr.Interference))
	for k, it := range tr.Interference {
		fmt.Printf("  station %2d: airtime=%.2f hidden=%v edges=%v\n",
			k, it.Airtime, it.HiddenFromENB, it.Edges)
	}
	fmt.Printf("ground truth: %v\n", tr.GroundTruth())
	return nil
}

func combineCmd(args []string, combine func(...*trace.Trace) (*trace.Trace, error)) error {
	fs := flag.NewFlagSet("combine", flag.ContinueOnError)
	out := fs.String("o", "combined.json", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 2 {
		return fmt.Errorf("need at least two input traces")
	}
	var traces []*trace.Trace
	for _, path := range fs.Args() {
		tr, err := trace.Load(path)
		if err != nil {
			return err
		}
		traces = append(traces, tr)
	}
	combined, err := combine(traces...)
	if err != nil {
		return err
	}
	if err := combined.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d UEs, %d stations, %d subframes\n",
		*out, combined.NumUE, len(combined.Interference), combined.Subframes)
	return nil
}

func inferCmd(args []string) error {
	fs := flag.NewFlagSet("blutrace", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "random seed")
	tol := fs.Float64("tol", 0.03, "constraint tolerance (−log domain)")
	par := fs.Int("parallel", 0, "worker goroutines for multi-start inference and MCMC chains (0 = all cores, 1 = sequential)")
	runMCMC := fs.Bool("mcmc", false, "also run the MCMC baseline")
	chains := fs.Int("chains", 1, "independent MCMC chains")
	rf := obs.AddRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: blutrace infer [flags] <trace.json>")
	}
	man, err := rf.Start(append([]string{"infer"}, args...))
	if err != nil {
		return err
	}
	if man != nil {
		man.Seed = *seed
		man.Config = map[string]any{
			"trace":    fs.Arg(0),
			"tol":      *tol,
			"parallel": *par,
			"mcmc":     *runMCMC,
			"chains":   *chains,
		}
	}
	replayStart := time.Now()
	tr, err := trace.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	cell, err := sim.NewFromTrace(tr, sim.ReplayConfig{})
	if err != nil {
		return err
	}
	meas := netsim.MeasureFromMasks(cell)
	man.AddPhase("replay", fs.Arg(0), time.Since(replayStart))
	truth := cell.GroundTruth()
	fmt.Printf("clients: %d, measured over %d subframes\n", tr.NumUE, cell.Subframes())
	fmt.Printf("ground truth:     %v\n", truth)

	start := time.Now()
	inf, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: *seed, Tolerance: *tol, Parallelism: *par})
	if err != nil {
		return err
	}
	man.AddPhase("infer", "deterministic constraint repair", time.Since(start))
	fmt.Printf("blueprint (BLU):  %v\n", inf.Topology)
	fmt.Printf("  accuracy=%.3f violation=%.4f converged=%v iters=%d time=%.1fms\n",
		blueprint.Accuracy(truth, inf.Topology), inf.Violation, inf.Converged,
		inf.Iterations, float64(time.Since(start).Microseconds())/1000)

	if *runMCMC {
		start = time.Now()
		mc, err := mcmc.Infer(meas, mcmc.Options{Seed: *seed, Chains: *chains, Parallelism: *par})
		if err != nil {
			return err
		}
		man.AddPhase("mcmc", fmt.Sprintf("%d chains", mc.Chains), time.Since(start))
		fmt.Printf("blueprint (MCMC): %v\n", mc.Topology)
		fmt.Printf("  accuracy=%.3f violation=%.4f accepted=%d/%d chains=%d best=%d time=%.1fms\n",
			blueprint.Accuracy(truth, mc.Topology), mc.Violation, mc.Accepted,
			mc.Iterations, mc.Chains, mc.BestChain, float64(time.Since(start).Microseconds())/1000)
	}
	return rf.Finish()
}
