// Package mac is a telemetryhygiene-rule fixture: metric names must be
// registered compile-time constants.
package mac

import "pab/internal/telemetry"

// Count increments a registered constant metric: legal.
func Count() {
	telemetry.Inc(telemetry.MGoodTotal)
}

// CountRogue uses a constant name that is not in the registry.
func CountRogue() {
	telemetry.Inc("rogue_total") // want "not registered in the telemetry name registry"
}

// CountDynamic mints a Name from a runtime string.
func CountDynamic(suffix string) {
	telemetry.Inc(telemetry.Name("mac_" + suffix)) // want "telemetry.Name conversion from a non-constant expression"
}

// CountRegistry exercises the method form with a non-constant name.
func CountRegistry(r *telemetry.Registry, name telemetry.Name) {
	r.Inc(name) // a checked Name value: legal
}
