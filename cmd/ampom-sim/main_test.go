package main

import (
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestSmokeSingleScheme(t *testing.T) {
	out := clitest.Run(t, "-kernel", "STREAM", "-mb", "8", "-scheme", "ampom")
	for _, want := range []string{"workload", "freeze", "faults", "prefetch/req"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeAllSchemesParallel(t *testing.T) {
	out := clitest.Run(t, "-kernel", "DGEMM", "-mb", "8", "-scheme", "all", "-j", "2")
	if !strings.Contains(out, "Scheme comparison") || !strings.Contains(out, "AMPoM") {
		t.Fatalf("unexpected comparison output:\n%s", out)
	}
}

func TestSmokeUnknownKernelIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "bogus")
	if !strings.Contains(stderr, "unknown kernel") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeNegativeWorkersIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "STREAM", "-mb", "8", "-j", "-3")
	if !strings.Contains(stderr, "must be >= 0") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeLoadOutOfRangeIsUsageError(t *testing.T) {
	for _, load := range []string{"-2", "3", "NaN"} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "STREAM", "-mb", "8", "-load", load)
		if !strings.Contains(stderr, "outside [0, 0.95]") {
			t.Fatalf("-load %s: unexpected stderr:\n%s", load, stderr)
		}
	}
}

func TestSmokeUnknownNetworkIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "STREAM", "-mb", "8", "-network", "bogus")
	if !strings.Contains(stderr, "unknown network") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

func TestSmokeNonPositiveFootprintIsUsageError(t *testing.T) {
	for _, mb := range []string{"0", "-5"} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "STREAM", "-mb", mb)
		if !strings.Contains(stderr, "want a positive footprint") {
			t.Fatalf("-mb %s: unexpected stderr:\n%s", mb, stderr)
		}
	}
}

func TestSmokeAllocBelowFootprintIsUsageError(t *testing.T) {
	for _, alloc := range []string{"-1", "2"} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "STREAM", "-mb", "4", "-alloc", alloc)
		if !strings.Contains(stderr, "at least -mb 4") {
			t.Fatalf("-alloc %s: unexpected stderr:\n%s", alloc, stderr)
		}
	}
}
