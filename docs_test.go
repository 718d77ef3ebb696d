package blu_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docPath matches a repository path under cmd/, examples/ or internal/
// (a directory, or a .go file in one), and the target of go run.
var docPath = regexp.MustCompile(`\b(?:cmd|examples|internal)(?:/[\w-]+)+(?:\.go)?|go run \./[\w/.-]*`)

// TestDocsNameLivePaths fails when a document names a path under cmd/,
// examples/ or internal/, or a go run target, that does not exist.
// bench/README.md is not scanned: it documents the benchmark module,
// which changes on its own schedule.
func TestDocsNameLivePaths(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllString(string(text), -1) {
			path, _ := strings.CutPrefix(m, "go run ")
			if _, err := os.Stat(filepath.FromSlash(path)); err != nil {
				t.Errorf("%s names %q, which does not exist", doc, m)
			}
		}
	}
}

// quotedClaim matches a claim line quoted in a document: `claim …`.
var quotedClaim = regexp.MustCompile("`(claim [^`]*)`")

// TestDocsQuoteTheRecord fails when EXPERIMENTS.md or README.md quotes
// a run that experiments_full.txt, the recorded paper-scale run, does
// not hold: a fenced block under EXPERIMENTS.md's "Recorded runs" or a
// quoted claim line that is not in the record verbatim. It also fails
// on a verdict row that says "reproduced", "not reproduced" aside,
// without quoting a claim that holds, and on one that quotes a claim
// that fails without saying "not reproduced".
func TestDocsQuoteTheRecord(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	record, experiments := read("experiments_full.txt"), read("EXPERIMENTS.md")
	_, runs, ok := strings.Cut(experiments, "Recorded runs")
	if !ok {
		t.Fatal(`EXPERIMENTS.md has no "Recorded runs"`)
	}
	runs, _, _ = strings.Cut(runs, "\n## ")
	blocks := regexp.MustCompile("(?s)```\n(.*?)```").FindAllStringSubmatch(runs, -1)
	if len(blocks) == 0 {
		t.Error(`no fenced block under "Recorded runs"`)
	}
	for _, b := range blocks {
		if !strings.Contains(record, b[1]) {
			t.Errorf("recorded run not in experiments_full.txt:\n%s", b[1])
		}
	}
	for doc, text := range map[string]string{"EXPERIMENTS.md": experiments, "README.md": read("README.md")} {
		for _, q := range quotedClaim.FindAllStringSubmatch(text, -1) {
			if !strings.Contains(record, "\n"+q[1]+"\n") {
				t.Errorf("%s quotes a claim line not in experiments_full.txt: %s", doc, q[1])
			}
		}
	}
	for _, row := range strings.Split(experiments, "\n") {
		verdict := strings.ToLower(row)
		if !strings.HasPrefix(row, "|") || !strings.Contains(verdict, "reproduced") {
			continue
		}
		quoted, held := quotedClaim.FindAllStringSubmatch(row, -1), false
		for _, q := range quoted {
			if strings.Contains(q[1], ": holds (") {
				held = true
			} else if !strings.Contains(verdict, "not reproduced") {
				t.Errorf("verdict quotes a claim that fails without saying \"not reproduced\": %s", q[1])
			}
		}
		if strings.Contains(strings.ReplaceAll(verdict, "not reproduced", ""), "reproduced") && !held {
			t.Errorf("verdict says reproduced but quotes no claim that holds: %s", row)
		}
	}
}
