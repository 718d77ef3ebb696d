package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesBadScaleAndSeed checks that a -scale outside (0, 1] or a
// zero -seed is a startup error naming its flag: no table is run and no
// manifest is written, rather than a paper-scale or seed-1 run recorded
// under the value that was asked for.
func TestRefusesBadScaleAndSeed(t *testing.T) {
	for _, tc := range []struct{ flag, value string }{
		{"-scale", "2"},
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-seed", "0"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			man := filepath.Join(t.TempDir(), "m.json")
			err := run([]string{"-manifest", man, tc.flag, tc.value, "fig4c"})
			if err == nil || !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("err = %v, want an error naming %s", err, tc.flag)
			}
			if _, err := os.Stat(man); !os.IsNotExist(err) {
				t.Fatalf("a manifest was written (stat: %v)", err)
			}
		})
	}
}

// TestRunsOneExperiment runs a cheap experiment end to end, and refuses
// an unknown one and a flag given after the experiment (which the flag
// parser would otherwise leave unparsed, running paper scale).
func TestRunsOneExperiment(t *testing.T) {
	man := filepath.Join(t.TempDir(), "m.json")
	if err := run([]string{"-scale", "0.05", "-seed", "3", "-manifest", man, "fig4c"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(man); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if err := run([]string{"-scale", "0.05", "nope"}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("unknown experiment: err = %v", err)
	}
	if err := run([]string{"fig4c", "-scale", "0.05"}); err == nil || !strings.Contains(err.Error(), `"-scale"`) {
		t.Fatalf("flag after the experiment: err = %v", err)
	}
}
