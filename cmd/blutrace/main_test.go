package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenRefusesBadSizes checks that every out-of-range gen size is a
// startup error naming its flag, never a panic or a silently rewritten
// trace.
func TestGenRefusesBadSizes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.json")
	for _, tc := range []struct{ flag, value string }{
		{"-ues", "0"},
		{"-ues", "-1"},
		{"-ues", "65"},
		{"-hts", "-1"},
		{"-subframes", "0"},
		{"-duty", "-1"},
		{"-duty", "0"},
		{"-duty", "1"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			err := run([]string{"gen", "-o", out, "-subframes", "200", tc.flag, tc.value})
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("err = %v, want an error naming %s", err, tc.flag)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("a trace was written (stat: %v)", err)
			}
		})
	}
}

// TestGenThenInfer runs the emulation pipeline end to end on a small
// trace: gen writes it, infer replays it and solves, and -manifest
// writes the run manifest.
func TestGenThenInfer(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "t.json")
	man := filepath.Join(dir, "m.json")
	if err := run([]string{"gen", "-o", tr, "-ues", "4", "-hts", "0", "-subframes", "2000", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"infer", "-parallel", "1", "-mcmc", "-manifest", man, tr}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(man); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
}
