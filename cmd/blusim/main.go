// Command blusim regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	blusim list                 # show available experiments
//	blusim all [flags]          # run every experiment in order
//	blusim fig15 [flags]        # run one experiment
//
// Flags:
//
//	-scale f       workload scale in (0,1], 1 = paper scale (default 1)
//	-seed n        random seed (default 1)
//	-parallel n    worker goroutines per experiment (0 = all cores,
//	               1 = sequential); tables are identical at any setting
//	-manifest file enable the obs layer and write a JSON run manifest
//	               (config, seed, per-experiment timings, metric snapshot)
//	-pprof addr    serve net/http/pprof on addr (e.g. localhost:6060)
//	-faults list   comma-separated fault scenarios for the chaos
//	               experiment (default: all presets; try `blusim
//	               -faults stall,loss chaos`)
//
// Each experiment prints a table whose rows mirror the series the
// corresponding paper figure plots; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"blu/internal/experiments"
	"blu/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blusim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("blusim", flag.ContinueOnError)
	scale := fs.Float64("scale", 1, "workload scale in (0,1]; 1 is paper scale")
	seed := fs.Uint64("seed", 1, "random seed")
	par := fs.Int("parallel", 0, "worker goroutines per experiment (0 = all cores, 1 = sequential)")
	faultList := fs.String("faults", "", "comma-separated fault scenarios for the chaos experiment (empty = all presets)")
	rf := obs.AddRunFlags(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: blusim [flags] <experiment|all|list>")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "experiments:", experiments.IDs())
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("no experiment given")
	}
	man, err := rf.Start(args)
	if err != nil {
		return err
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallelism: *par, Faults: *faultList}
	reg := experiments.Registry()

	if man != nil {
		man.Seed = *seed
		man.Config = map[string]any{
			"scale":    *scale,
			"seed":     *seed,
			"parallel": *par,
			"faults":   *faultList,
		}
	}

	switch cmd := fs.Arg(0); cmd {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	case "all":
		for _, id := range experiments.IDs() {
			if err := runOne(reg, id, opts, man); err != nil {
				return err
			}
		}
	default:
		if err := runOne(reg, cmd, opts, man); err != nil {
			return err
		}
	}
	return rf.Finish()
}

func runOne(reg map[string]experiments.Runner, id string, opts experiments.Options, man *obs.Manifest) error {
	runner, ok := reg[id]
	if !ok {
		return fmt.Errorf("unknown experiment %q (try: blusim list)", id)
	}
	start := time.Now()
	table, err := runner(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	man.AddPhase(id, table.Title, time.Since(start))
	table.Fprint(os.Stdout)
	fmt.Printf("(%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	return nil
}
