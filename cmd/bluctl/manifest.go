package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"

	"blu/internal/obs"
)

// manifestCmd validates one run manifest.
func manifestCmd(args []string) error {
	fs := flag.NewFlagSet("bluctl manifest", flag.ContinueOnError)
	require := fs.String("require", "", "comma-separated counters that must be present and nonzero")
	requirePhase := fs.String("require-phase", "", "comma-separated phases that must be present")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bluctl manifest [-require a,b,c] [-require-phase a,b,c] <file.json>")
	}
	path := fs.Arg(0)

	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return checkManifest(path, data, splitList(*require), splitList(*requirePhase))
}

func checkManifest(path string, data []byte, required, phases []string) error {
	var man obs.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := man.Validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	// Round-trip: re-marshal the parsed manifest and parse it again; the
	// two in-memory forms must agree, proving no field is lost or
	// mangled by the schema (e.g. a numeric type that truncates).
	again, err := json.Marshal(&man)
	if err != nil {
		return err
	}
	var man2 obs.Manifest
	if err := json.Unmarshal(again, &man2); err != nil {
		return fmt.Errorf("%s: re-parse: %w", path, err)
	}
	if !reflect.DeepEqual(man, man2) {
		return fmt.Errorf("%s: manifest does not survive a JSON round-trip", path)
	}

	for _, name := range required {
		v, ok := man.Metrics.Counters[name]
		if !ok {
			return fmt.Errorf("%s: required counter %q missing from snapshot", path, name)
		}
		if v == 0 {
			return fmt.Errorf("%s: required counter %q is zero", path, name)
		}
	}
	for _, name := range phases {
		if !slices.ContainsFunc(man.Phases, func(p obs.PhaseTiming) bool { return p.Name == name }) {
			return fmt.Errorf("%s: required phase %q missing", path, name)
		}
	}

	fmt.Printf("%s: ok (tool=%s phases=%d counters=%d)\n",
		path, man.Tool, len(man.Phases), len(man.Metrics.Counters))
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
