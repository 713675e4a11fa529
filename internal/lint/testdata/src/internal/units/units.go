// Package units is a fixture mirror of the real internal/units: it
// carries the approved epsilon helper the floatcmp rule exempts.
package units

// ApproxEqual is the approved epsilon helper; its body may compare
// floats exactly because it implements the tolerance.
func ApproxEqual(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= tol {
		return true
	}
	return a == b
}

// Sloppy is NOT on the approved-helper list, so its exact comparison
// is flagged like anyone else's.
func Sloppy(a, b float64) bool {
	return a == b // want "floating-point == comparison"
}
