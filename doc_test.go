package ownsim_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// DESIGN.md §3 lists every package under internal/ and cmd/, and only directories that exist.
func TestDesignInventoryMatchesTree(t *testing.T) {
	design, _ := os.ReadFile("DESIGN.md") // unreadable reads as empty: every package then fails below
	_, inv, _ := strings.Cut(string(design), "## 3. Package inventory\n\n```")
	inv, _, _ = strings.Cut(inv, "```")
	for _, line := range strings.Split(inv, "\n") {
		if f := strings.Fields(line); len(f) > 0 && line[0] != ' ' {
			if _, err := os.Stat(f[0]); err != nil {
				t.Errorf("DESIGN.md §3 names a directory that does not exist: %v", err)
			}
		}
	}
	internal, _ := filepath.Glob("internal/*/*.go")
	cmd, _ := filepath.Glob("cmd/*/*.go")
	for _, f := range append(internal, cmd...) {
		if dir := filepath.Dir(f); !strings.HasSuffix(f, "_test.go") && !strings.Contains(inv, "\n"+dir+" ") {
			t.Errorf("DESIGN.md §3 has no line for %s", dir)
			inv += "\n" + dir + " " // once per directory
		}
	}
}
