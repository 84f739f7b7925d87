package wireless

import "math"

// The paper's SDM argument requires that channels sharing a frequency
// band operate over "different non-intersecting areas", with transmit
// power "kept at a minimum to limit interference". This file provides
// the geometric check: each wireless link is the segment between its TX
// and RX antennas on the package floor plan, and two links may share a
// band only if their segments keep a guard separation.

// segment is a line segment between two package points.
type segment struct{ a, b Point }

// linkSegment returns the physical path of an OWN-256 channel.
func linkSegment(l Link) segment {
	return segment{
		a: AntennaPosition(l.SrcCluster, l.TxAntenna[0]),
		b: AntennaPosition(l.DstCluster, l.RxAntenna[0]),
	}
}

// SeparationMM returns the minimum distance between the propagation
// paths of two channels: zero if the segments cross.
func SeparationMM(a, b Link) float64 {
	return segmentDistance(linkSegment(a), linkSegment(b))
}

// SDMGuardMM is the minimum path separation required for two co-channel
// links: the near-field clearance below which the paper's minimal
// transmit power can no longer isolate them. One tile pitch.
const SDMGuardMM = 6.0

// Conflicts reports whether two channels may NOT share a frequency
// band: the two directions of one antenna pair occupy the same physical
// path (full duplex on one carrier), and distinct pairs interfere when
// their propagation paths come within the guard separation.
func Conflicts(a, b Link) bool {
	if a.Class == b.Class && a.PairIndex == b.PairIndex {
		return true
	}
	return SeparationMM(a, b) < SDMGuardMM
}

// ValidateSDM checks a plan's band sharing and returns every co-channel
// pair that violates the interference constraint; a correct plan returns
// none.
func ValidateSDM(p Plan) []([2]Link) {
	var bad [][2]Link
	for i, a := range p.Channels {
		for _, b := range p.Channels[i+1:] {
			if a.Band.Index != b.Band.Index {
				continue
			}
			if Conflicts(a.Link, b.Link) {
				bad = append(bad, [2]Link{a.Link, b.Link})
			}
		}
	}
	return bad
}

// segmentDistance returns the minimum Euclidean distance between two
// segments (zero when they intersect).
func segmentDistance(s, t segment) float64 {
	if segmentsIntersect(s, t) {
		return 0
	}
	d := math.Inf(1)
	for _, v := range []float64{
		pointSegmentDistance(s.a, t),
		pointSegmentDistance(s.b, t),
		pointSegmentDistance(t.a, s),
		pointSegmentDistance(t.b, s),
	} {
		if v < d {
			d = v
		}
	}
	return d
}

// pointSegmentDistance returns the distance from p to segment s.
func pointSegmentDistance(p Point, s segment) float64 {
	dx, dy := s.b.X-s.a.X, s.b.Y-s.a.Y
	l2 := float64(dx*dx) + float64(dy*dy)
	if l2 <= 0 {
		return p.Distance(s.a)
	}
	t := (float64((p.X-s.a.X)*dx) + float64((p.Y-s.a.Y)*dy)) / l2
	t = math.Max(0, math.Min(1, t))
	proj := Point{s.a.X + float64(t*dx), s.a.Y + float64(t*dy)}
	return p.Distance(proj)
}

// segmentsIntersect reports whether two segments cross (inclusive of
// endpoint touching).
func segmentsIntersect(s, t segment) bool {
	d1 := cross(t.a, t.b, s.a)
	d2 := cross(t.a, t.b, s.b)
	d3 := cross(s.a, s.b, t.a)
	d4 := cross(s.a, s.b, t.b)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return touches(d1, t, s.a) || touches(d2, t, s.b) ||
		touches(d3, s, t.a) || touches(d4, s, t.b)
}

// touches reports whether point p lies on segment s, given d = the cross
// product of s's direction with p. Antenna coordinates come from the
// package floor plan's exact tile grid, so collinearity here is an exact
// property, not a numerical accident.
func touches(d float64, s segment, p Point) bool {
	//lint:ignore floatcmp exact collinearity test on floor-plan grid coordinates
	return d == 0 && onSegment(s, p)
}

// cross returns the z component of (b-a) x (p-a).
func cross(a, b, p Point) float64 {
	return float64((b.X-a.X)*(p.Y-a.Y)) - float64((b.Y-a.Y)*(p.X-a.X))
}

// onSegment reports whether p (already collinear) lies within s's box.
func onSegment(s segment, p Point) bool {
	return math.Min(s.a.X, s.b.X) <= p.X && p.X <= math.Max(s.a.X, s.b.X) &&
		math.Min(s.a.Y, s.b.Y) <= p.Y && p.Y <= math.Max(s.a.Y, s.b.Y)
}
