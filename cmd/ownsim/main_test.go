package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ownsim/internal/flightrec"
	"ownsim/internal/probe"
)

// recordArgs is the deterministic observed run the checked-in digests
// pin: OWN-256 at the default load, 200 warmup and 800 measured cycles,
// seed 1.
var recordArgs = []string{"-cores", "256", "-warmup", "200", "-measure", "800", "-seed", "1"}

// recordSums lists dir the way sha256sum does, one "<hex>  <name>" line
// per file in name order. manifest.json is digested with its build
// member cleared: that member names the Go toolchain, not the run.
func recordSums(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == "manifest.json" {
			var man probe.Manifest
			if err := json.Unmarshal(data, &man); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := man.WriteJSON(&again); err != nil || !bytes.Equal(again.Bytes(), data) {
				t.Fatalf("manifest.json does not round-trip through probe.Manifest (err %v)", err)
			}
			again.Reset()
			man.Build = nil
			if err := man.WriteJSON(&again); err != nil {
				t.Fatal(err)
			}
			data = again.Bytes()
		}
		fmt.Fprintf(&b, "%x  %s\n", sha256.Sum256(data), e.Name())
	}
	return b.String()
}

// TestRecordMatchesDigests runs `ownsim -out DIR` in process and pins
// every file of the record to testdata/record.sha256. A moved digest is
// either a bug or a change of the record to state; the failure prints
// the complete new sums file.
func TestRecordMatchesDigests(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(append(recordArgs, "-out", dir), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "record.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	if got := recordSums(t, dir); got != string(want) {
		t.Errorf("the record differs from testdata/record.sha256; its sums are:\n%s", got)
	}
	for _, line := range []string{"energy:      " + filepath.Join(dir, "energy.csv"), "manifest:    " + filepath.Join(dir, "manifest.json")} {
		if !strings.Contains(stdout.String(), line+"\n") {
			t.Errorf("stdout lacks %q:\n%s", line, &stdout)
		}
	}
	// The observers register no engine component of their own: the one
	// Collect-phase component is the probe's sampler, ticked every cycle.
	data, err := os.ReadFile(filepath.Join(dir, "dump.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap flightrec.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	eng := snap.Engine
	i := slices.IndexFunc(eng.Phases, func(ph probe.PhaseIntro) bool { return ph.Phase == "collect" })
	if i < 0 || eng.Phases[i].Ticks != eng.Cycles {
		t.Errorf("engine phases %+v over %d cycles: want the collect phase ticked once per cycle", eng.Phases, eng.Cycles)
	}
}

// TestBadInputExitStatus: a flag value no run can honour is one line on
// stderr and exit 2; an -out directory that cannot be created is exit 1
// before anything is simulated.
func TestBadInputExitStatus(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-cores", "300"}, 2},
		{[]string{"-pattern", "nope"}, 2},
		{[]string{"-fail", "3,3"}, 2},
		{[]string{"-load", "2"}, 2},
		{[]string{"-warmup", "18446744073709551615", "-measure", "1"}, 2},
		{append(recordArgs, "-out", filepath.Join(notDir, "record")), 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "ownsim: ") {
			t.Errorf("ownsim %v: exit %d, stdout %q, stderr %q; want exit %d and one line", tc.args, code, &stdout, &stderr, tc.code)
		}
	}
	// A flag that no longer exists is a usage error too: exit 2, with the
	// flag list on stderr.
	for _, args := range [][]string{{"-sample", "0"}, {"-listen", "127.0.0.1:0"}, {"-watchdog", "1"}, {"-telemetry", "3"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) || !strings.Contains(stderr.String(), "\n  -out ") {
			t.Errorf("ownsim %v: exit %d, stdout %q, stderr %q; want exit 2 and the flag list", args, code, &stdout, &stderr)
		}
	}
}

// TestHelpListsFlags pins the surface: -h lists 13 flags and exits 0.
func TestHelpListsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("ownsim -h: exit %d", code)
	}
	if flags := regexp.MustCompile(`(?m)^  -\w`).FindAllString(stderr.String(), -1); len(flags) != 13 {
		t.Errorf("ownsim -h lists %d flags, want 13:\n%s", len(flags), &stderr)
	}
}

// TestSaturatedRunPrintsNoLatency: a run past saturation prints
// "saturated" where an unsaturated one prints its latencies, and the
// verdict line below it.
func TestSaturatedRunPrintsNoLatency(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(append(recordArgs, "-load", "0.02"), &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	out := stdout.String()
	if !regexp.MustCompile(`(?m)^performance: pkts=\d+ saturated avgHops=[0-9.]+ thr=[0-9.]+ f/n/c$`).MatchString(out) ||
		!strings.Contains(out, "no latency reported\n") {
		t.Errorf("saturated run prints:\n%s", out)
	}
	for _, latency := range []string{"avgLat=", "p50=", "maxLat="} {
		if strings.Contains(out, latency) {
			t.Errorf("saturated run prints %q:\n%s", latency, out)
		}
	}
}
