package main

import (
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestSmokeTraceStream(t *testing.T) {
	out := clitest.Run(t, "-kernel", "STREAM", "-mb", "8", "-windows", "2")
	for _, want := range []string{"spatial score", "temporal score", "AMPoM dry run"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSmokeKernelAliasIgnoresCase(t *testing.T) {
	out := clitest.Run(t, "-kernel", "GUPS", "-mb", "8", "-windows", "1")
	if !strings.Contains(out, "RandomAccess") {
		t.Fatalf("-kernel GUPS did not select RandomAccess:\n%s", out)
	}
}

func TestSmokeUnknownKernelIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-kernel", "bogus")
	if !strings.Contains(stderr, "unknown kernel") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}
