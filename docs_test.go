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
