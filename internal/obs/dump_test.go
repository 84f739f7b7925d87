package obs

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"ownsim/internal/probe"
)

func TestDebugDumpEndpoint(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	var gotFormat []string
	s.SetDumpProvider(func(format string) ([]byte, error) {
		gotFormat = append(gotFormat, format)
		if format == "text" {
			return []byte("=== flight recorder dump ==="), nil
		}
		return []byte("{\"reason\":\"request\",\"cycle\":1}\n"), nil
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + addr + "/debug/dump")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default dump Content-Type = %q, want application/json", ct)
	}
	if !strings.Contains(string(body), "\"reason\":\"request\"") {
		t.Errorf("dump body = %q", body)
	}

	resp, err = http.Get("http://" + addr + "/debug/dump?format=text")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("text dump Content-Type = %q", ct)
	}
	if !strings.HasPrefix(string(body), "=== flight recorder dump") {
		t.Errorf("text dump body = %q", body)
	}
	if len(gotFormat) != 2 || gotFormat[0] != "" || gotFormat[1] != "text" {
		t.Errorf("provider saw formats %v, want [\"\", \"text\"]", gotFormat)
	}
}

func TestDebugDumpProviderError(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	s.SetDumpProvider(func(string) ([]byte, error) {
		return nil, errors.New("simulation goroutine gone")
	})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/debug/dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("provider error returned HTTP %d, want 500", resp.StatusCode)
	}
}

func TestDebugDumpUnmountedWithoutProvider(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/debug/dump")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("dump without provider returned HTTP %d, want 404", resp.StatusCode)
	}
}

func TestHealthzReportsBuildInfo(t *testing.T) {
	p, _, _ := testProbe()
	s := New()
	s.Attach(p)
	s.SetBuildInfo(&probe.BuildInfo{GoVersion: "go-test", Module: "ownsim"})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Build *probe.BuildInfo `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Build == nil || health.Build.GoVersion != "go-test" || health.Build.Module != "ownsim" {
		t.Fatalf("healthz build = %+v", health.Build)
	}
}

func TestReadBuildInfoStampsTestBinary(t *testing.T) {
	bi := probe.ReadBuildInfo()
	if bi == nil {
		t.Skip("runtime carries no build info")
	}
	if bi.GoVersion == "" || bi.Module == "" {
		t.Errorf("build info incomplete: %+v", bi)
	}
}
