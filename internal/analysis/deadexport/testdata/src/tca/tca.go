// Package tca is the fixture's facade: it is never checked itself, and the
// types it re-exports by alias keep their methods.
package tca

import "tca/internal/units"

// Bandwidth is re-exported; its methods are public API.
type Bandwidth = units.Bandwidth

// Unreferenced is exported from the facade and needs no caller.
func Unreferenced() {}
