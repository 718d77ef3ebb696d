// Command blusim regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	blusim list                   # show available experiments
//	blusim [flags] all            # run every experiment in order
//	blusim [flags] fig15          # run one experiment
//	blusim [flags] fig17 fig18    # run several; a shared sweep runs once
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
// corresponding paper figure plots, then one line per claim the paper
// makes about it, checked against those rows and holding when its
// margin is at least 0:
//
//	claim NAME: holds|FAILS (margin) — the paper's words, with the threshold
//
// EXPERIMENTS.md quotes these lines from the recorded run.
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
		fmt.Fprintln(fs.Output(), "usage: blusim [flags] <experiment...|all|list>")
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
	// Options would quietly turn these into the paper-scale run and
	// seed 1, while the manifest records what was asked for.
	if !(*scale > 0 && *scale <= 1) {
		return fmt.Errorf("-scale must be in (0, 1], got %v", *scale)
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be >= 1, got 0")
	}
	ids := fs.Args()
	switch ids[0] {
	case "list":
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	case "all":
		ids = experiments.IDs()
	}
	man, err := rf.Start(args)
	if err != nil {
		return err
	}
	if man != nil {
		man.Seed = *seed
		man.Config = map[string]any{
			"scale":    *scale,
			"seed":     *seed,
			"parallel": *par,
			"faults":   *faultList,
		}
	}
	opts := experiments.Options{Seed: *seed, Scale: *scale, Parallelism: *par, Faults: *faultList}
	start := time.Now()
	err = experiments.Run(opts, ids, func(table *experiments.Table) error {
		man.AddPhase(table.ID, table.Title, time.Since(start))
		table.Fprint(os.Stdout)
		fmt.Printf("(%s in %.1fs)\n\n", table.ID, time.Since(start).Seconds())
		start = time.Now()
		return nil
	})
	if err != nil {
		return err
	}
	return rf.Finish()
}
