package main

import (
	"path/filepath"
	"strings"
	"testing"

	"ampom"
	"ampom/internal/clitest"
)

func TestSmokeLiveMigration(t *testing.T) {
	out := clitest.Run(t, "-pages", "64")
	if !strings.Contains(out, "memory preserved bit-for-bit") {
		t.Fatalf("live migration did not verify memory:\n%s", out)
	}
	if !strings.Contains(out, "prefetched") {
		t.Fatalf("no prefetch stats:\n%s", out)
	}
}

func TestSmokeRandomMix(t *testing.T) {
	out := clitest.Run(t, "-pages", "64", "-mix", "random")
	if !strings.Contains(out, "memory preserved bit-for-bit") {
		t.Fatalf("random-mix migration did not verify memory:\n%s", out)
	}
}

func TestSmokeMixFromSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	spec := ampom.ScenarioSpec{
		Name:  "live",
		Nodes: 4,
		Mix:   []ampom.ScenarioMixWeight{{Kind: ampom.MixBlocked, Weight: 2}, {Kind: ampom.MixRandom, Weight: 1}},
	}
	if err := ampom.SaveScenarioSpec(path, spec); err != nil {
		t.Fatal(err)
	}
	out := clitest.Run(t, "-pages", "64", "-spec", path)
	if !strings.Contains(out, "mix blocked drawn from spec") {
		t.Fatalf("spec-driven mix not reported:\n%s", out)
	}
	if !strings.Contains(out, "memory preserved bit-for-bit") {
		t.Fatalf("spec-driven migration did not verify memory:\n%s", out)
	}
}

// TestSmokeSinglePass: migrated half-way through its only pass, the
// process leaves the pages it already swept at the origin deputy; the
// checksum still matches because it counts them there.
func TestSmokeSinglePass(t *testing.T) {
	out := clitest.Run(t, "-pages", "64", "-passes", "1")
	if !strings.Contains(out, "memory preserved bit-for-bit") {
		t.Fatalf("single-pass migration did not verify memory:\n%s", out)
	}
}
