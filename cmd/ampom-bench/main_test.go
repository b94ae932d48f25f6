package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampom/internal/cli"
	"ampom/internal/clitest"
)

func TestSmokeTable1(t *testing.T) {
	out := clitest.Run(t, "-figure", "table1", "-scale", "64")
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "DGEMM") {
		t.Fatalf("unexpected table1 output:\n%s", out)
	}
}

func TestSmokeFigure10CSV(t *testing.T) {
	out := clitest.Run(t, "-figure", "fig10", "-scale", "64", "-csv", "-j", "2")
	if !strings.Contains(out, "openMosix") || !strings.Contains(out, ",") {
		t.Fatalf("unexpected fig10 CSV output:\n%s", out)
	}
}

func TestSmokeUnknownFigureIsUsageError(t *testing.T) {
	_, stderr := clitest.RunExpect(t, cli.CodeUsage, "-figure", "bogus")
	if !strings.Contains(stderr, "unknown figure") {
		t.Fatalf("unexpected stderr:\n%s", stderr)
	}
}

// TestSmokeNonPositiveSizesAreUsageErrors: a scale below 1 used to run
// silently at paper scale, and a negative -j at GOMAXPROCS workers.
func TestSmokeNonPositiveSizesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "table1", "-scale", "-4"},
		{"-figure", "table1", "-scale", "0"},
		{"-figure", "table1", "-scale", "64", "-j", "-3"},
	} {
		_, stderr := clitest.RunExpect(t, cli.CodeUsage, args...)
		if !strings.Contains(stderr, "must be >= ") {
			t.Fatalf("%v: unexpected stderr:\n%s", args, stderr)
		}
	}
}

// TestSmokeProfileFlags runs one small figure under both profilers and
// checks both pprof files land where asked and are not empty.
func TestSmokeProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	clitest.Run(t, "-figure", "table1", "-scale", "64", "-cpuprofile", cpu, "-memprofile", mem)
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}
