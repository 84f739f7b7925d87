package power

// Named unit types for the energy-accounting plane. The repository's
// headline numbers are physical quantities (picojoule read-outs,
// milliwatt reports); as bare float64s a pJ added to a mW, or energy
// divided by the wrong time base, would compile. The types carry the
// unit in the type system, so the compiler rejects mixing two of them
// without a conversion, and the converter methods below are the
// sanctioned way to cross dimensions: each one states the physics of
// the conversion (1 pJ / 1 ns = 1 mW) exactly once. A plain cast
// between two units (Picojoules(someMW)) compiles and is wrong; the
// goldens and the run records catch the numbers it moves.
//
// The Params table intentionally stays float64: its fields are
// calibration constants whose unit is part of the field name
// (EBufWritePJ, PLeakPerPortMW), and Meter.Energy — the one place a count
// meets a constant — converts the products into the typed values.

// Picojoules is dynamic energy, the unit of every priced count.
type Picojoules float64

// Milliwatts is average or static power, the unit of every report.
type Milliwatts float64

// Nanoseconds is simulated wall time (cycles over the clock).
type Nanoseconds float64

// OverNS converts energy spread over a time span into average power:
// 1 pJ over 1 ns is exactly 1 mW.
func (e Picojoules) OverNS(ns Nanoseconds) Milliwatts {
	return Milliwatts(float64(e) / float64(ns))
}

// TimesNS integrates power over a time span back into energy
// (the inverse of Picojoules.OverNS).
func (p Milliwatts) TimesNS(ns Nanoseconds) Picojoules {
	return Picojoules(float64(p) * float64(ns))
}
