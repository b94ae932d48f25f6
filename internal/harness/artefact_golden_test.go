package harness

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampom/internal/campaign"
)

// The artefact goldens pin what the harness prints and what it asks the
// campaign engine to run: every figure and ablation table, aligned and as
// CSV, and the ordered campaign job list perfbench hashes results over. A
// change to which cells an artefact reads, or to how it formats them,
// shows up as a diff here.

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current code")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s diverged at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, golden has %d", path, len(gl), len(wl))
}

// TestArtefactsGolden pins every figure and ablation table at scale 16,
// seed 7: the aligned rendering, then the CSV.
func TestArtefactsGolden(t *testing.T) {
	m := NewMatrix(goldenCfg(0))
	var b strings.Builder
	for _, tab := range renderTables(t, m, append(catalogueNames(false), catalogueNames(true)...)...) {
		fmt.Fprintf(&b, "%s\n# %s\n%s\n", tab.Render(), tab.Title, tab.CSV())
	}
	checkGolden(t, "artefacts.golden", b.String())
}

// jobFields is campaign.Job without its String method, so %+v prints
// every field rather than the job's label.
type jobFields campaign.Job

// TestCampaignJobsGolden pins CampaignJobs, one job per line in order with
// every field, at the two scales perfbench's paper-migration workload
// enumerates.
func TestCampaignJobsGolden(t *testing.T) {
	for _, scale := range []int64{8, 64} {
		var b strings.Builder
		for _, j := range NewMatrix(Config{Scale: scale, Seed: 7}).CampaignJobs() {
			fmt.Fprintf(&b, "%+v\n", jobFields(j))
		}
		checkGolden(t, fmt.Sprintf("campaign_jobs_scale%d.golden", scale), b.String())
	}
}
