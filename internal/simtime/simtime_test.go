package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeAdd(t *testing.T) {
	tm := Time(0)
	if got := tm.Add(Second); got != Time(1e9) {
		t.Fatalf("Add(Second) = %v, want 1e9", int64(got))
	}
	if got := tm.Add(-Second); got != Time(-1e9) {
		t.Fatalf("Add(-Second) = %v, want -1e9", int64(got))
	}
}

func TestTimeAddSaturates(t *testing.T) {
	near := Never - 10
	if got := near.Add(Duration(100)); got != Never {
		t.Fatalf("overflowing Add = %v, want Never", got)
	}
	if got := near.Add(5); got != Never-5 {
		t.Fatalf("non-overflowing Add = %v, want %v", got, Never-5)
	}
}

func TestTimeSub(t *testing.T) {
	a, b := Time(5*Second), Time(2*Second)
	if got := a.Sub(b); got != 3*Second {
		t.Fatalf("Sub = %v, want 3s", got)
	}
	if got := b.Sub(a); got != -3*Second {
		t.Fatalf("Sub = %v, want -3s", got)
	}
}

func TestBeforeAfter(t *testing.T) {
	a, b := Time(1), Time(2)
	if !b.After(a) || a.After(b) || a.After(a) {
		t.Fatal("After misordered")
	}
}

func TestSeconds(t *testing.T) {
	if got := Time(1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds = %v, want 1.5", got)
	}
	if got := (2500 * Microsecond).Seconds(); got != 0.0025 {
		t.Fatalf("Duration.Seconds = %v, want 0.0025", got)
	}
	if got := (3 * Millisecond).Milliseconds(); got != 3 {
		t.Fatalf("Milliseconds = %v, want 3", got)
	}
}

func TestFromSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want Duration
	}{
		{1, Second},
		{0.001, Millisecond},
		{0, 0},
		{-5, 0},
		{1e-9, Nanosecond},
	}
	for _, c := range cases {
		if got := FromSeconds(c.in); got != c.want {
			t.Errorf("FromSeconds(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	// Restricted to durations well inside float64's integer-exact range;
	// beyond ~2^52 ns the conversion is correct only to 1 ulp.
	f := func(ms uint16) bool {
		d := Duration(ms) * Millisecond
		return FromSeconds(d.Seconds()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStdConversion(t *testing.T) {
	if got := FromStd(250 * time.Millisecond); got != 250*Millisecond {
		t.Fatalf("FromStd = %v", got)
	}
	if got := FromStd(2 * time.Second); got != 2*Second {
		t.Fatalf("FromStd = %v", got)
	}
}

func TestStrings(t *testing.T) {
	if got := Time(1500 * Millisecond).String(); got != "1.500000s" {
		t.Fatalf("Time.String = %q", got)
	}
	if got := Never.String(); got != "never" {
		t.Fatalf("Never.String = %q", got)
	}
	if got := (90 * Second).String(); got != "1m30s" {
		t.Fatalf("Duration.String = %q", got)
	}
}
