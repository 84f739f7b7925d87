// Package obs is an errcheck-own fixture: internal/obs is an
// artifact-writer package, so every error return matters here.
package obs

import (
	"fmt"
	"os"
	"strings"
)

// Spill drops two write errors on the floor.
func Spill(f *os.File, data string) {
	f.WriteString(data) // seeded: discarded write error
	_ = f.Close()       // seeded: blank-assigned without a reason
}

// Render writes into infallible in-memory sinks: exempt, must not be
// flagged.
func Render(cycle int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d\n", cycle)
	b.WriteString("done\n")
	return b.String()
}

// Flush demonstrates the reasoned escape hatch.
func Flush(f *os.File) {
	//lint:ignore errcheck-own fixture: best-effort flush on the shutdown path
	f.Sync()
}

// Dump writes an artifact and propagates the outcome; the fixture
// cmd/tool drops it to exercise the callee-side rule.
func Dump(path string) error {
	return os.WriteFile(path, []byte("fixture\n"), 0o600)
}
