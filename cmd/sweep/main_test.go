package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ownsim/internal/probe"
)

// recordArgs is the deterministic sweep the checked-in digests pin: two
// OWN-256 load points of 200 warmup and 800 measured cycles, seed 1; the
// record is the re-run of the higher one.
var recordArgs = []string{"-topo", "own", "-cores", "256", "-points", "2", "-warmup", "200", "-measure", "800"}

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

// TestRecordMatchesDigests runs `sweep -out DIR` in process and pins
// every file of the record to testdata/record.sha256; the failure prints
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
	if lines := strings.Count(stdout.String(), "\n"); lines != 3 {
		t.Errorf("stdout has %d lines, want the CSV header and two points:\n%s", lines, &stdout)
	}
}

// TestAllTopologiesWriteTheManifestAlone: with -topo all there is no
// single point to observe, so -out holds manifest.json with every point.
func TestAllTopologiesWriteTheManifestAlone(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-cores", "256", "-points", "2", "-warmup", "100", "-measure", "400", "-out", dir}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "manifest.json" {
		t.Fatalf("-topo all -out wrote %v (err %v), want manifest.json alone", entries, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man probe.Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Points) != 10 || len(man.Artifacts) != 0 || man.Config["topo"] != "all" || man.Config["window"] != "256" {
		t.Errorf("manifest: %d points, %d artifacts, config %v", len(man.Points), len(man.Artifacts), man.Config)
	}
}

// TestBadInputExitStatus: a flag value no sweep can honour is one line on
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
		{[]string{"-points", "1"}, 2},
		{[]string{"-cores", "300"}, 2},
		{[]string{"-warmup", "18446744073709551615", "-measure", "1"}, 2},
		{append(recordArgs, "-out", filepath.Join(notDir, "record")), 1},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "sweep: ") {
			t.Errorf("sweep %v: exit %d, stdout %q, stderr %q; want exit %d and one line", tc.args, code, &stdout, &stderr, tc.code)
		}
	}
	// A flag that no longer exists is a usage error: exit 2, with the
	// flag list on stderr.
	for _, args := range [][]string{{"-listen", "127.0.0.1:0"}, {"-telemetry", "3"}, {"-plot"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), "flag provided but not defined: "+args[0]) || !strings.Contains(stderr.String(), "\n  -out ") {
			t.Errorf("sweep %v: exit %d, stdout %q, stderr %q; want exit 2 and the flag list", args, code, &stdout, &stderr)
		}
	}
}

// TestHelpListsFlags pins the surface: -h lists 9 flags and exits 0.
func TestHelpListsFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("sweep -h: exit %d", code)
	}
	if flags := regexp.MustCompile(`(?m)^  -\w`).FindAllString(stderr.String(), -1); len(flags) != 9 {
		t.Errorf("sweep -h lists %d flags, want 9:\n%s", len(flags), &stderr)
	}
}
