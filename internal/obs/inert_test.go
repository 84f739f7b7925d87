package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ownsim/internal/core"
	"ownsim/internal/fabric"
	"ownsim/internal/noc"
	"ownsim/internal/plot"
	"ownsim/internal/power"
	"ownsim/internal/probe"
	"ownsim/internal/router"
	"ownsim/internal/traffic"
	"ownsim/internal/wireless"
)

// obsRing builds a small ring of radix-3 routers (port 0 terminal in,
// port 1 terminal out, port 2 ring) with energy metering on every link.
func obsRing(nRouters int, m *power.Meter) *fabric.Network {
	n := fabric.New("obsring", nRouters, m)
	n.Diameter = nRouters
	routers := make([]*router.Router, nRouters)
	for i := 0; i < nRouters; i++ {
		id := i
		routers[i] = n.AddRouter(router.Config{
			ID: id, NumPorts: 3, NumVCs: 2, BufDepth: 4,
			Route: func(p *noc.Packet, _ int) (int, uint32) {
				if p.Dst == id {
					return 1, 3
				}
				return 2, 3
			},
		})
	}
	for i := 0; i < nRouters; i++ {
		n.Connect(routers[i], 2, routers[(i+1)%nRouters], 2,
			fabric.LinkSpec{Delay: 2, SerializeCy: 1, LengthMM: 1.5})
	}
	for i := 0; i < nRouters; i++ {
		n.AddTerminal(i, routers[i], 0, 1)
	}
	return n
}

// runObsRing runs the ring bare or, with live set, under a session that
// serves it over HTTP (which implies flight recorder, span-tracking probe
// and sampler), scraping /metrics before the run and /debug/dump after.
func runObsRing(t *testing.T, live bool) (fabric.Result, *fabric.Network) {
	t.Helper()
	n := obsRing(4, power.NewMeter(nil))
	f := &Flags{}
	var url string
	if live {
		f.Listen = "127.0.0.1:0"
	}
	s, err := Start(n, f, func(format string, args ...any) {
		// The one diagnostic: the bound address.
		if _, err := fmt.Sscanf(fmt.Sprintf(format, args...), "live telemetry on %s", &url); err != nil {
			t.Errorf("unexpected session diagnostic: "+format, args...)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	get := func(url, want string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Fatalf("GET %s: status %d, err %v, body lacks %q", url, resp.StatusCode, err, want)
		}
	}
	if live {
		// Poll the live plane before the run to prove reads are harmless.
		get(url, "ownsim_net_buffered_flits")
	}
	res := n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
		fabric.RunSpec{Warmup: 100, Measure: 800},
	)
	s.Finish()
	if live {
		get(strings.TrimSuffix(url, "/metrics")+"/debug/dump", `{"reason":"request",`)
	}
	return res, n
}

// TestLivePlaneInert extends the probe-inertness guarantee to the whole
// observed-run path: a session with the HTTP server up, everything
// -listen implies installed and a client scraping must leave the
// Result and the energy attribution bit-for-bit unchanged.
func TestLivePlaneInert(t *testing.T) {
	bare, bn := runObsRing(t, false)
	live, ln := runObsRing(t, true)
	if bare != live {
		t.Fatalf("live plane changed the result:\n  off: %+v\n  on:  %+v", bare, live)
	}
	var bBuf, lBuf bytes.Buffer
	if err := bn.Meter.WriteEnergyCSV(&bBuf, bn.Eng.Cycle()); err != nil {
		t.Fatal(err)
	}
	if err := ln.Meter.WriteEnergyCSV(&lBuf, ln.Eng.Cycle()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bBuf.Bytes(), lBuf.Bytes()) {
		t.Fatalf("live plane changed energy.csv:\n--- off\n%s--- on\n%s", bBuf.String(), lBuf.String())
	}
}

// TestHeatmapArtifactsByteStable renders the energy and congestion
// artifacts from two identical probed runs and requires byte equality.
func TestHeatmapArtifactsByteStable(t *testing.T) {
	render := func() (energy, congCSV, congSVG []byte) {
		n := obsRing(4, power.NewMeter(nil))
		n.InstallProbe(probe.New(probe.Options{MetricsEvery: 32}))
		n.Run(
			fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.08, PktFlits: 3, Seed: 11},
			fabric.RunSpec{Warmup: 100, Measure: 800},
		)
		var eBuf bytes.Buffer
		if err := n.Meter.WriteEnergyCSV(&eBuf, n.Eng.Cycle()); err != nil {
			t.Fatal(err)
		}
		hm := &plot.Heatmap{Labels: n.RouterLabels(), Values: n.CongestionValues()}
		var cBuf bytes.Buffer
		if err := hm.WriteCSV(&cBuf); err != nil {
			t.Fatal(err)
		}
		return eBuf.Bytes(), cBuf.Bytes(), []byte(hm.SVG())
	}
	e1, c1, s1 := render()
	e2, c2, s2 := render()
	if !bytes.Equal(e1, e2) {
		t.Fatal("energy CSV differs across identical runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("congestion heatmap CSV differs across identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("congestion heatmap SVG differs across identical runs")
	}
}

// TestCongestionHeatmapNeedsNoPerComponentProbe: the congestion heatmap
// reads Router.Counts, which every router keeps once a probe is
// installed, so the aggregate probe of a record renders every router's
// stalls without registering a metric per router.
func TestCongestionHeatmapNeedsNoPerComponentProbe(t *testing.T) {
	sys := core.NewSystem("own", 256, wireless.Config4, wireless.Ideal)
	n := sys.Build(power.NewMeter(nil))
	n.InstallProbe(probe.New(probe.Options{MetricsEvery: 256}))
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.006, Seed: 3, Policy: sys.Policy, Classify: sys.Classify},
		fabric.RunSpec{Warmup: 200, Measure: 800},
	)
	for _, name := range n.Probe.Registry().Names() {
		if strings.HasPrefix(name, "router.") {
			t.Fatalf("the probe registered a per-router metric %q", name)
		}
	}
	files, err := EmitHeatmaps(n, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("EmitHeatmaps wrote %v, want the congestion and energy pairs", files)
	}
	csv, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`,r\d+,[1-9]`).Match(csv) {
		t.Fatalf("no router stalled, so the heatmap shows nothing:\n%s", csv)
	}
}

// TestEmitHeatmapsWirelessLabels registers two wireless channels (one
// classed, one not) and checks the energy heatmap pair appears with
// class-qualified channel labels.
func TestEmitHeatmapsWirelessLabels(t *testing.T) {
	m := power.NewMeter(nil)
	n := obsRing(3, m)
	n.InstallProbe(probe.New(probe.Options{}))
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 2, Seed: 3},
		fabric.RunSpec{Warmup: 50, Measure: 200},
	)
	one := uint64(1)
	m.ReadWireless(0, "C2C", 1.25, 0, &one)
	m.ReadWireless(1, "", 0.5, 0, &one)

	dir := t.TempDir()
	files, err := EmitHeatmaps(n, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("files = %v, want congestion + energy pairs", files)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "heat_energy.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ch0/C2C", "ch1/unclassified"} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("energy heatmap CSV missing label %q:\n%s", want, raw)
		}
	}
}

// TestEmitHeatmapsSkipsEnergyWithoutWireless checks the wireless-energy
// heatmap is omitted on a network with no wireless channel.
func TestEmitHeatmapsSkipsEnergyWithoutWireless(t *testing.T) {
	n := obsRing(3, power.NewMeter(nil))
	n.InstallProbe(probe.New(probe.Options{}))
	n.Run(
		fabric.TrafficSpec{Pattern: traffic.Uniform, Rate: 0.05, PktFlits: 2, Seed: 3},
		fabric.RunSpec{Warmup: 50, Measure: 200},
	)
	files, err := EmitHeatmaps(n, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("files = %v, want only the congestion pair (no wireless energy charged)", files)
	}
}
