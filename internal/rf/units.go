package rf

// Named unit types for the link-budget math. Logarithmic units are the
// easiest to silently miscompute: a relative gain (dB) and an absolute
// power level (dBm) are both "decibels" to a float64, but adding two
// absolute levels is meaningless while adding a gain to a level is the
// whole point of a link budget. The types below encode that algebra:
// the compiler rejects mixing a DBm with a Decibels, PlusDB/MinusDB are
// the way to shift a level by a gain, and a crossing into the linear
// domain belongs in a method of these types. Two DBm values still add;
// the link-budget and amplifier tests catch the numbers that moves.

// Decibels is a relative (dimensionless, logarithmic) quantity: gain,
// loss, noise figure, margin, antenna directivity.
type Decibels float64

// DBm is an absolute power level referenced to 1 mW.
type DBm float64

// PlusDB shifts an absolute level by a relative gain or margin.
func (p DBm) PlusDB(g Decibels) DBm {
	return DBm(float64(p) + float64(g))
}

// MinusDB shifts an absolute level down by a relative gain or loss.
func (p DBm) MinusDB(g Decibels) DBm {
	return DBm(float64(p) - float64(g))
}
