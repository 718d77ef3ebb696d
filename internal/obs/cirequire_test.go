package obs_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	_ "blu/internal/core"
	_ "blu/internal/faults"
	_ "blu/internal/fleet"
	_ "blu/internal/joint"
	"blu/internal/obs"
	_ "blu/internal/persist"
	_ "blu/internal/sched"
	_ "blu/internal/serve"
)

// requireList matches the counter lists ci.sh hands to
// `bluctl manifest -require`; -require-phase, -require-cache and
// -require-body-file are other flags and do not match.
var requireList = regexp.MustCompile(`-require ([A-Za-z0-9_,]+)`)

// TestCIRequiredCountersRegistered fails at test time, rather than in
// the ci.sh smoke at run time, when a counter a smoke requires is no
// longer registered by the package that produced it.
func TestCIRequiredCountersRegistered(t *testing.T) {
	script, err := os.ReadFile("../../ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	lists := requireList.FindAllSubmatch(script, -1)
	if len(lists) == 0 {
		t.Fatal("ci.sh has no bluctl manifest -require lists")
	}
	for _, list := range lists {
		for _, name := range strings.Split(string(list[1]), ",") {
			if !obs.CounterRegistered(name) {
				t.Errorf("ci.sh requires counter %q, but no package registers it at init", name)
			}
		}
	}
}
