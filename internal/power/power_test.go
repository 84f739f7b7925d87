package power

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// flits is a fixed count: what a link or channel that carried n flits
// would hold.
func flits(n uint64) *uint64 { return &n }

// grants is a constant router reader.
func grants(sa, vca uint64) func() (uint64, uint64) {
	return func() (uint64, uint64) { return sa, vca }
}

func TestNilMeterIsSafe(t *testing.T) {
	var m *Meter
	var n uint64
	m.BufWrite()
	m.ReadRouter(8, grants(1, 1))
	m.ReadLink(&n, 5)
	m.ReadWireless(0, "C2C", 0.5, 0, &n)
	m.RegisterRouter(8, 4)
	m.RegisterInputPort(4)
	m.EachWirelessChannel(func(int, string, Picojoules) { t.Fatal("nil meter has no channels") })
	if m.WirelessAvgChannelMW(100) != 0 || m.WirelessClasses() != nil {
		t.Fatal("nil meter should report zero")
	}
}

// TestMeterAccumulation pins the two kinds of count: NBufWrite advances
// with every BufWrite call and no pricing read (bench/ladder.go steps on
// it), the other five N* fields are the registered components' counts as
// of the last pricing read.
func TestMeterAccumulation(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p)
	m.BufWrite()
	m.BufWrite()
	if m.NBufWrite != 2 {
		t.Fatalf("NBufWrite = %d with no pricing read, want 2", m.NBufWrite)
	}
	elec, phot := uint64(7), uint64(11)
	m.ReadRouter(5, grants(3, 1))
	m.ReadRouter(8, grants(4, 2))
	m.ReadLink(&elec, 2.5)
	m.ReadLink(&phot, 0)
	m.ReadLink(flits(13), 0)
	m.ReadWireless(0, "C2C", 1, 0, flits(17))
	if m.NXbar != 0 || m.NPhotFlit != 0 {
		t.Fatal("read-out counts filled before any pricing read")
	}
	e := m.Energy()
	if m.NBufRead != 7 || m.NXbar != 7 || m.NElecFlit != 7 || m.NPhotFlit != 24 || m.NWirelessFlt != 17 {
		t.Fatalf("read-out counts %d %d %d %d %d, want 7 7 7 24 17",
			m.NBufRead, m.NXbar, m.NElecFlit, m.NPhotFlit, m.NWirelessFlt)
	}
	bits := float64(p.FlitBits)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"BufWrite", float64(e.BufWrite), 2 * p.EBufWritePJ},
		{"BufRead", float64(e.BufRead), 7 * p.EBufReadPJ},
		{"Xbar", float64(e.Xbar), 3*p.XbarPJ(5) + 4*p.XbarPJ(8)},
		{"Arb", float64(e.Arb), 3*p.SAArbPJ(5) + 4*p.SAArbPJ(8) + 3*p.EVCAArbPJ},
		{"ElecLink", float64(e.ElecLink), 7 * p.EElecPJPerBitMM * bits * 2.5},
		{"Photonic", float64(e.Photonic), 24 * p.EPhotonicPJPerBit * bits},
		{"WirelessTx", float64(e.WirelessTx), 17 * bits},
	} {
		if math.Abs(c.got-c.want) > 1e-12*c.want {
			t.Errorf("%s = %v pJ, want %v", c.name, c.got, c.want)
		}
	}
	// A count that moves shows in the next read, with nothing to reset.
	elec = 8
	if m.Energy(); m.NElecFlit != 8 {
		t.Fatalf("NElecFlit = %d after the wire delivered one more, want 8", m.NElecFlit)
	}
}

func TestXbarEnergyScalesWithRadix(t *testing.T) {
	p := DefaultParams()
	small, large := p.XbarPJ(8), p.XbarPJ(67)
	if large <= small {
		t.Fatalf("xbar energy should grow with radix: %v vs %v", small, large)
	}
	wantDelta := p.EXbarPerPortPJ * float64(67-8)
	if math.Abs((large-small)-wantDelta) > 1e-12 {
		t.Fatalf("xbar delta = %v, want %v", large-small, wantDelta)
	}
}

func TestReportUnits(t *testing.T) {
	p := DefaultParams() // 2 GHz: 1 cycle = 0.5 ns
	m := NewMeter(p)
	// 1000 pJ of photonic energy over 2000 cycles = 1000 ns -> 1 mW.
	n := uint64(math.Round(1000.0 / (p.EPhotonicPJPerBit * float64(p.FlitBits))))
	m.ReadLink(flits(n), 0)
	b := m.Report(2000)
	wantPJ := float64(n) * p.EPhotonicPJPerBit * float64(p.FlitBits)
	wantMW := wantPJ / 1000.0
	if math.Abs(float64(b.PhotonicMW)-wantMW) > 1e-9 {
		t.Fatalf("PhotonicMW = %v, want %v", b.PhotonicMW, wantMW)
	}
	if b.Cycles != 2000 {
		t.Fatalf("Cycles = %d", b.Cycles)
	}
}

func TestReportZeroCyclesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMeter(nil).Report(0)
}

func TestStaticPower(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p)
	m.RegisterRouter(20, 4)
	m.RegisterRouter(8, 4)
	m.RegisterInputPort(4)
	m.RegisterInputPort(4)
	b := m.Report(100)
	want := p.RouterLeakMW(20) + p.RouterLeakMW(8) + 2*4*p.PLeakPerVCBufMW
	if math.Abs(float64(b.RouterStaticMW)-want) > 1e-12 {
		t.Fatalf("static = %v, want %v", b.RouterStaticMW, want)
	}
}

// TestWirelessPerChannel: per-channel energy is flits × EPB × flit bits,
// reported in registration order under the registered id, and the Figure 5
// average divides by the number of registered channels — an idle one
// counts, an absent (failed) one does not, whatever their ids.
func TestWirelessPerChannel(t *testing.T) {
	m := NewMeter(DefaultParams())
	m.ReadWireless(3, "SR", 1.0, 0, flits(3))
	m.ReadWireless(0, "C2C", 2.0, 0, flits(1))
	m.ReadWireless(7, "E2E", 5.0, 0, flits(0))
	var ids []int
	var pjs []Picojoules
	m.EachWirelessChannel(func(id int, _ string, pj Picojoules) {
		ids, pjs = append(ids, id), append(pjs, pj)
	})
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 0 || ids[2] != 7 {
		t.Fatalf("channel ids = %v, want [3 0 7]", ids)
	}
	if pjs[0] != 3*128 || pjs[1] != 2*128 || pjs[2] != 0 {
		t.Fatalf("per-channel energy = %v, want [384 256 0]", pjs)
	}
	// 640 pJ over 1000 cycles = 500 ns is 1.28 mW, over three channels.
	if got, want := float64(m.WirelessAvgChannelMW(1000)), 1.28/3; math.Abs(got-want) > 1e-12 {
		t.Fatalf("average channel power = %v mW, want %v", got, want)
	}
}

// TestPriceWireless: re-pricing swaps what a bit costs per channel id and
// nothing else, so pricing table A, then B, then A again returns the first
// numbers bit for bit.
func TestPriceWireless(t *testing.T) {
	m := NewMeter(nil)
	m.ReadWireless(0, "C2C", 0.7, 0, flits(1001))
	m.ReadWireless(2, "SR", 0.3, 2, flits(77))
	a, b := []float64{0.7, 9, 0.3}, []float64{0.11}
	first := m.Report(500)
	m.PriceWireless(b)
	second := m.Report(500)
	wantTx := Picojoules(1001*0.11*128 + 77*0.3*128)
	if got := m.Energy().WirelessTx; math.Abs(float64(got-wantTx)) > 1e-9 {
		t.Fatalf("re-priced transmit energy %v pJ, want %v (channel 2 is outside the table and keeps its price)", got, wantTx)
	}
	if second.WirelessMW >= first.WirelessMW {
		t.Fatalf("cheaper table did not lower wireless power: %v -> %v", first.WirelessMW, second.WirelessMW)
	}
	m.PriceWireless(a)
	if again := m.Report(500); again != first {
		t.Fatalf("pricing A, B, A:\n got %+v\nwant %+v", again, first)
	}
}

// TestWirelessNegativeChannelIsUnattributed: a channel registered with no
// id still counts toward the wireless total; its energy is reported under
// the "unattributed" class.
func TestWirelessNegativeChannelIsUnattributed(t *testing.T) {
	m := NewMeter(DefaultParams())
	m.ReadWireless(-1, "C2C", 1.0, 0, flits(1))
	if m.Energy().WirelessTx != 128 {
		t.Fatal("energy should still be priced")
	}
	if got := m.WirelessClasses(); len(got) != 1 || got[0] != "unattributed" {
		t.Fatalf("classes = %v, want [unattributed]", got)
	}
}

func TestBreakdownTotalAndString(t *testing.T) {
	b := Breakdown{RouterDynMW: 1, RouterStaticMW: 2, ElecLinkMW: 3, PhotonicMW: 4, WirelessMW: 5}
	if b.TotalMW() != 15 {
		t.Fatalf("TotalMW = %v", b.TotalMW())
	}
	if !strings.Contains(b.String(), "total 15.00 mW") {
		t.Fatalf("String() = %q", b.String())
	}
}

func TestEnergyNonNegativeProperty(t *testing.T) {
	f := func(nw, nr, nx uint8, mm float64) bool {
		m := NewMeter(DefaultParams())
		for i := 0; i < int(nw); i++ {
			m.BufWrite()
		}
		m.ReadRouter(20, grants(uint64(nr), uint64(nx)))
		one := uint64(1)
		m.ReadLink(&one, math.Abs(mm))
		b := m.Report(1000)
		return b.TotalMW() >= 0 && b.RouterDynMW >= 0 && b.ElecLinkMW >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewMeterNilParams(t *testing.T) {
	m := NewMeter(nil)
	if m.P == nil {
		t.Fatal("NewMeter(nil) should install defaults")
	}
}
