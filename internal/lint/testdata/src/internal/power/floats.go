// Package power is a lint fixture for the floatcmp analyzer, which
// applies to every non-test package.
package power

// Equal compares two measured floats exactly.
func Equal(a, b float64) bool {
	return a == b
}

// NonZero compares a float variable against a constant.
func NonZero(x float64) bool {
	return x != 0
}

// IsNaN uses the self-comparison idiom: must not be flagged.
func IsNaN(x float64) bool {
	return x != x
}

// Both sides are compile-time constants: must not be flagged.
const scale = 1.5

// Wide is folded by the compiler.
var Wide = scale == 1.5

// SameCount compares integers: must not be flagged.
func SameCount(a, b int) bool {
	return a == b
}

// Suppressed demonstrates the reasoned escape hatch.
func Suppressed(a, b float64) bool {
	//lint:ignore floatcmp fixture demonstrating the escape hatch
	return a == b
}

// Malformed carries an ignore directive with no reason: the directive
// itself is reported and suppresses nothing.
func Malformed(a, b float64) bool {
	//lint:ignore floatcmp
	return a == b
}

//lint:ignore floatcmps typo'd analyzer name: reported, suppresses nothing
var zero = 0.0
