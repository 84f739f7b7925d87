package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadInputExitStatus: a flag value no trace or replay can honour is
// one "trace: " line on stderr and exit 2, with nothing on stdout.
func TestBadInputExitStatus(t *testing.T) {
	for _, args := range [][]string{
		{"-cores", "300"},
		{"-topo", "mesh", "-run"},
		{"-workload", "foo"},
		{"-run", "-budget", "0"},
		{"-budget", "0"},
		{"-period", "17179869184", "-iters", "1"},
		{"-period", "8589934592", "-iters", "1"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "trace: ") {
			t.Errorf("trace %v: exit %d, stdout %q, stderr %q; want exit 2 and one line", args, code, &stdout, &stderr)
		}
	}
	// A flag that does not exist is a usage error too.
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Errorf("trace -nope: exit %d, stdout %q; want exit 2", code, &stdout)
	}
}

// TestShortPeriodPrintsATrace: a stencil period below four cycles has no
// room for jitter, so every iteration's sends share its first cycle.
func TestShortPeriodPrintsATrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-period", "2", "-iters", "2"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("trace -period 2: exit %d, stderr %q", code, &stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if lines[0] != "cycle,src,dst" || len(lines) != 1+2*256*4 {
		t.Fatalf("trace -period 2 printed %d lines starting %q, want a header and %d entries", len(lines), lines[0], 2*256*4)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "0,") && !strings.HasPrefix(l, "2,") {
			t.Fatalf("entry %q is off its iteration's first cycle", l)
		}
	}
}

// TestLongestPeriodPrintsOneTrace: at the longest period, the jitter
// range [0, period/4) is just within a 32-bit int, so every platform
// draws and prints the same trace.
func TestLongestPeriodPrintsOneTrace(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-period", "8589934591", "-iters", "1"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("trace -period 8589934591: exit %d, stderr %q", code, &stderr)
	}
	out := strings.TrimSuffix(stdout.String(), "\n")
	if last := out[strings.LastIndexByte(out, '\n')+1:]; last != "2146796149,78,62" {
		t.Errorf("trace -period 8589934591 -iters 1 ends with %q, want %q", last, "2146796149,78,62")
	}
}

// TestReplayPrintsOneRowPerTopology: -run replays the trace on the named
// architecture and prints the header and one row.
func TestReplayPrintsOneRowPerTopology(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "-topo", "cmesh", "-iters", "1"}, &stdout, &stderr); code != 0 || stderr.Len() != 0 {
		t.Fatalf("trace -run: exit %d, stderr %q", code, &stderr)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "workload=stencil packets=1024 cores=256\n\ntopology") || !strings.Contains(out, "\ncmesh    true ") {
		t.Errorf("trace -run printed:\n%s", out)
	}
}
