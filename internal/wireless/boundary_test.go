package wireless

import (
	"math"
	"testing"
)

// Table-driven boundary tests for the Table-III/IV band-plan model:
// per-band efficiency at the ramp endpoints (band 0 and band 15), the
// LD scaling factors and the distances they belong to, and all four
// Table-IV transceiver-technology configurations.

const bandEPBTol = 1e-12

// TestBandEfficiencyRampEndpoints pins the EPB ramp at its two
// boundaries for every tech x scenario cell: band 0 pays exactly the
// technology's base energy (Table III column 1) and band 15 pays base
// plus fifteen ramp steps. Expected values are written out as decimal
// literals so a regression in either table constant is caught directly.
func TestBandEfficiencyRampEndpoints(t *testing.T) {
	cases := []struct {
		tech   Tech
		scen   Scenario
		band0  float64 // pJ/bit at ramp index 0
		band15 float64 // pJ/bit at ramp index 15
	}{
		{CMOS, Ideal, 0.1, 0.1 + 15*0.05},
		{CMOS, Conservative, 0.1, 0.1 + 15*0.05},
		{BiCMOS, Ideal, 0.3, 0.3 + 15*0.07},
		{BiCMOS, Conservative, 0.3, 0.3 + 15*0.06},
		{SiGeHBT, Ideal, 0.5, 0.5 + 15*0.10},
		{SiGeHBT, Conservative, 0.5, 0.5 + 15*0.07},
	}
	for _, c := range cases {
		lo := Band{Index: 0, Tech: c.tech}
		hi := Band{Index: 15, Tech: c.tech}
		if got := lo.EPBpJ(c.scen); math.Abs(got-c.band0) > bandEPBTol {
			t.Errorf("%v/%v band 0: EPB = %v pJ/bit, want %v", c.tech, c.scen, got, c.band0)
		}
		if got := hi.EPBpJ(c.scen); math.Abs(got-c.band15) > bandEPBTol {
			t.Errorf("%v/%v band 15: EPB = %v pJ/bit, want %v", c.tech, c.scen, got, c.band15)
		}
		// The ramp between the endpoints is exactly 15 equal steps.
		step := (hi.EPBpJ(c.scen) - lo.EPBpJ(c.scen)) / 15
		if math.Abs(step-c.tech.RampPJPerBit(c.scen)) > bandEPBTol {
			t.Errorf("%v/%v: ramp step = %v pJ/bit, want %v", c.tech, c.scen, step, c.tech.RampPJPerBit(c.scen))
		}
	}
}

// TestBandPlanFrequencyBoundaries pins the plan's frequency endpoints
// per scenario: band 0 sits at the 90 GHz start, band 15 at start plus
// fifteen (bandwidth + isolation) steps.
func TestBandPlanFrequencyBoundaries(t *testing.T) {
	cases := []struct {
		scen    Scenario
		last    float64 // CenterGHz of band 15
		firstBi int     // first BiCMOS band index (techFor >= 230 GHz)
		firstSi int     // first SiGeHBT band index (techFor >= 310 GHz)
	}{
		// Ideal: step 40 GHz. 90+4*40=250 first >=230; 90+6*40=330 first >=310.
		{Ideal, 90 + 15*40, 4, 6},
		// Conservative: step 20 GHz. 90+7*20=230 (boundary is inclusive);
		// 90+11*20=310 (likewise).
		{Conservative, 90 + 15*20, 7, 11},
	}
	for _, c := range cases {
		plan := BandPlan(c.scen)
		if len(plan) != 16 {
			t.Fatalf("%v: %d bands, want 16", c.scen, len(plan))
		}
		if plan[0].CenterGHz != 90 {
			t.Errorf("%v: band 0 at %v GHz, want 90", c.scen, plan[0].CenterGHz)
		}
		if plan[15].CenterGHz != c.last {
			t.Errorf("%v: band 15 at %v GHz, want %v", c.scen, plan[15].CenterGHz, c.last)
		}
		for k, b := range plan {
			want := CMOS
			switch {
			case k >= c.firstSi:
				want = SiGeHBT
			case k >= c.firstBi:
				want = BiCMOS
			}
			if b.Tech != want {
				t.Errorf("%v: band %d (%v GHz) uses %v, want %v", c.scen, k, b.CenterGHz, b.Tech, want)
			}
		}
	}
}

// TestLDScalingFactorTable pins the Table-III link-distance scaling
// factors and the nominal distances they anchor to.
func TestLDScalingFactorTable(t *testing.T) {
	cases := []struct {
		class  DistClass
		factor float64
		mm     float64
	}{
		{SR, 0.15, 10},
		{E2E, 0.5, 30},
		{C2C, 1.0, 60},
	}
	for _, c := range cases {
		if got := c.class.LDFactor(); got != c.factor {
			t.Errorf("%v: LDFactor = %v, want %v", c.class, got, c.factor)
		}
		if got := c.class.NominalMM(); got != c.mm {
			t.Errorf("%v: NominalMM = %v, want %v", c.class, got, c.mm)
		}
	}
}

// TestTableIVConfigurations checks every cell of Table IV: which
// transceiver technology each of the four studied configurations
// assigns to each link-distance class.
func TestTableIVConfigurations(t *testing.T) {
	cases := []struct {
		cfg          Config
		c2c, e2e, sr Tech
	}{
		{Config1, SiGeHBT, CMOS, CMOS},
		{Config2, CMOS, BiCMOS, SiGeHBT},
		{Config3, SiGeHBT, BiCMOS, CMOS},
		{Config4, CMOS, CMOS, BiCMOS},
	}
	for _, c := range cases {
		if got := c.cfg.TechFor(C2C); got != c.c2c {
			t.Errorf("%v C2C: %v, want %v", c.cfg, got, c.c2c)
		}
		if got := c.cfg.TechFor(E2E); got != c.e2e {
			t.Errorf("%v E2E: %v, want %v", c.cfg, got, c.e2e)
		}
		if got := c.cfg.TechFor(SR); got != c.sr {
			t.Errorf("%v SR: %v, want %v", c.cfg, got, c.sr)
		}
	}

	all := AllConfigs()
	if len(all) != 4 {
		t.Fatalf("AllConfigs: %d entries, want 4", len(all))
	}
	for i, cfg := range all {
		if cfg != Config(i+1) {
			t.Errorf("AllConfigs[%d] = %v, want %v", i, cfg, Config(i+1))
		}
		want := [...]string{"config1", "config2", "config3", "config4"}[i]
		if cfg.String() != want {
			t.Errorf("Config %d String = %q, want %q", i+1, cfg.String(), want)
		}
	}
}
