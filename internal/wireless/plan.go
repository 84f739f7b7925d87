package wireless

import "fmt"

// ChannelPlan binds one OWN-256 channel to a frequency band and an
// energy-per-bit figure.
type ChannelPlan struct {
	Link Link
	Band Band
	// SDMShared marks channels whose band is reused via space-division
	// multiplexing (the paper's approach when a configuration demands
	// more channels of a technology than the plan has bands: e.g.
	// Config 4 needs 8 CMOS channels on 4 CMOS bands).
	SDMShared bool
	// EPBpJ is the transmit energy per bit including the link-distance
	// factor.
	EPBpJ float64
}

// Plan is a complete OWN-256 channel-to-band assignment for one
// configuration and scenario.
type Plan struct {
	Config   Config
	Scenario Scenario
	Channels []ChannelPlan // indexed by Link.ID
}

// PlanOWN256 assigns the 12 Table I channels to Table III bands under
// the given configuration: each distance class draws bands of its
// configured technology in ascending frequency. When a class needs more
// channels than the technology has bands, bands are reused via SDM —
// but only between spatially compatible links: the planner skips any
// band whose existing users fail the interference check (paths crossing
// or within the guard separation, or the two directions of one antenna
// pair), which is the paper's "different non-intersecting areas"
// requirement made precise. ValidateSDM certifies the result.
func PlanOWN256(cfg Config, s Scenario) Plan {
	bands := BandPlan(s)
	users := make([][]Link, NumBands)
	// cursor[tech] persists across distance classes so a technology's
	// unused bands are consumed before any SDM reuse begins.
	cursor := map[Tech]int{}
	channels := make([]ChannelPlan, len(OWN256Links()))
	for _, class := range []DistClass{C2C, E2E, SR} {
		tech := cfg.TechFor(class)
		tb := BandsOf(bands, tech)
		if len(tb) == 0 {
			panic(fmt.Sprintf("wireless: scenario %v has no %v bands", s, tech))
		}
		for _, l := range OWN256Links() {
			if l.Class != class {
				continue
			}
			chosen := -1
			for k := 0; k < len(tb); k++ {
				bi := tb[(cursor[tech]+k)%len(tb)]
				ok := true
				for _, u := range users[bi] {
					if Conflicts(u, l) {
						ok = false
						break
					}
				}
				if ok {
					chosen = bi
					break
				}
			}
			if chosen == -1 {
				panic(fmt.Sprintf("wireless: no interference-free %v band for channel %d (%v/%v)", tech, l.ID, cfg, s))
			}
			cursor[tech]++
			b := bands[chosen]
			shared := len(users[chosen]) > 0
			users[chosen] = append(users[chosen], l)
			channels[l.ID] = ChannelPlan{
				Link:      l,
				Band:      b,
				SDMShared: shared,
				EPBpJ:     b.EPBpJ(s) * class.LDFactor(),
			}
		}
	}
	return Plan{Config: cfg, Scenario: s, Channels: channels}
}

// MeanEPBpJ returns the unweighted mean energy per bit across the plan's
// channels — the analytic counterpart of the paper's Figure 5 (uniform
// traffic loads all cluster pairs equally).
func (p Plan) MeanEPBpJ() float64 {
	sum := 0.0
	for _, c := range p.Channels {
		sum += c.EPBpJ
	}
	return sum / float64(len(p.Channels))
}

// GroupChannelPlan binds one OWN-1024 channel to a band.
type GroupChannelPlan struct {
	Link      GroupLink
	Band      Band
	SDMShared bool
	EPBpJ     float64
}

// GroupPlan is a complete OWN-1024 assignment.
type GroupPlan struct {
	Config   Config
	Scenario Scenario
	Channels []GroupChannelPlan // indexed by GroupLink.ID
}

// PlanOWN1024 assigns the 16 Table II channels: the 12 inter-group
// channels follow the OWN-256 class rules at group scale, and the four
// intra-group channels take the plan's four highest bands (the
// reconfiguration channels 13-16, which the paper notes the 1024-core
// design must press into service) with those bands' native technology.
func PlanOWN1024(cfg Config, s Scenario) GroupPlan {
	bands := BandPlan(s)
	usage := make([]int, NumBands)
	cursor := map[Tech]int{}
	links := OWN1024Links()
	channels := make([]GroupChannelPlan, len(links))
	for _, class := range []DistClass{C2C, E2E, SR} {
		tech := cfg.TechFor(class)
		tb := BandsOf(bands, tech)
		if len(tb) == 0 {
			panic(fmt.Sprintf("wireless: scenario %v has no %v bands", s, tech))
		}
		for _, l := range links {
			if l.Intra() || l.Class != class {
				continue
			}
			b := bands[tb[cursor[tech]%len(tb)]]
			cursor[tech]++
			shared := usage[b.Index] > 0
			usage[b.Index]++
			channels[l.ID] = GroupChannelPlan{
				Link:      l,
				Band:      b,
				SDMShared: shared,
				EPBpJ:     b.EPBpJ(s) * class.LDFactor(),
			}
		}
	}
	// Intra-group channels on the reserved top bands.
	next := NumBands - 4
	for _, l := range links {
		if !l.Intra() {
			continue
		}
		b := bands[next]
		shared := usage[b.Index] > 0
		usage[b.Index]++
		channels[l.ID] = GroupChannelPlan{
			Link:      l,
			Band:      b,
			SDMShared: shared,
			EPBpJ:     b.EPBpJ(s) * l.Class.LDFactor(),
		}
		next++
	}
	return GroupPlan{Config: cfg, Scenario: s, Channels: channels}
}

// MeanEPBpJ mirrors Plan.MeanEPBpJ for the 1024-core plan.
func (p GroupPlan) MeanEPBpJ() float64 {
	sum := 0.0
	for _, c := range p.Channels {
		sum += c.EPBpJ
	}
	return sum / float64(len(p.Channels))
}
