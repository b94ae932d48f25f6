// Package simtime defines the virtual time base used by the discrete-event
// simulator. Virtual time is an int64 nanosecond count so that simulations
// are exactly reproducible across runs and platforms; no wall-clock time is
// ever consulted.
package simtime

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, in nanoseconds since the start of the
// simulation. The zero Time is the simulation epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is deliberately a
// distinct type from time.Duration so that virtual and wall-clock durations
// cannot be mixed by accident, although the unit (ns) is the same.
type Duration int64

// Common durations.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
)

// Never is a sentinel Time later than any reachable simulation instant.
const Never = Time(1<<63 - 1)

// Add returns the instant d after t. It saturates at Never on overflow.
func (t Time) Add(d Duration) Time {
	s := Time(int64(t) + int64(d))
	if d > 0 && s < t {
		return Never
	}
	return s
}

// Sub returns the duration from u to t (t − u).
func (t Time) Sub(u Time) Duration { return Duration(int64(t) - int64(u)) }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a floating-point number of seconds since the
// epoch.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as seconds with microsecond precision.
func (t Time) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.6fs", t.Seconds())
}

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// String formats the duration using the standard library notation.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalText renders the duration in the Go notation ("250ms") that
// UnmarshalText reads back exactly.
func (d Duration) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText reads a Go duration string; the empty string is zero.
func (d *Duration) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*d = 0
		return nil
	}
	std, err := time.ParseDuration(string(text))
	*d = FromStd(std)
	return err
}

// FromSeconds converts a floating-point number of seconds to a Duration,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Duration {
	if s <= 0 {
		return 0
	}
	return Duration(s*float64(Second) + 0.5)
}

// FromStd converts a time.Duration to a virtual Duration. Both are
// nanosecond counts, so the conversion is exact.
func FromStd(d time.Duration) Duration { return Duration(d) }
