package units

// Bandwidth is aliased by the facade.
type Bandwidth float64

// MBps has no caller, but the facade re-exports Bandwidth.
func (b Bandwidth) MBps() float64 { return float64(b) / 1e6 }

// Duration is not re-exported.
type Duration int64

// Seconds has no caller and Duration is not re-exported.
func (d Duration) Seconds() float64 { return float64(d) } // want "method Duration.Seconds has no non-test reference"

// Use keeps Duration itself referenced.
func Use(d Duration) Duration { return d }
