// Package sim is a lint fixture mirroring ownsim/internal/sim; the
// determinism analyzer is in scope here.
package sim

import (
	"math/rand"
	"os"
	"time"
)

// Clock violates determinism twice: a wall-clock read and a duration
// measured against it.
func Clock() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// Draw mixes the banned global RNG with a legal seeded generator: only
// rand.Intn must be flagged.
func Draw() int {
	legal := rand.New(rand.NewSource(1))
	return legal.Intn(10) + rand.Intn(10)
}

// Env makes results depend on the host environment.
func Env() string {
	return os.Getenv("OWNSIM_MODE")
}

// Suppressed demonstrates the reasoned escape hatch.
func Suppressed() time.Time {
	//lint:ignore determinism fixture demonstrating the escape hatch
	return time.Now()
}
