package cli

import (
	"flag"
	"io"
	"testing"
)

func parseCampaign(t *testing.T, args ...string) *CampaignFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := AddCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignFlagDefaults(t *testing.T) {
	c := parseCampaign(t)
	if c.Seed != 42 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Workers != 0 {
		t.Fatalf("default workers = %d, want 0 (GOMAXPROCS)", c.Workers)
	}
}

func TestCampaignFlagWorkersResolution(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{nil, 0},
		{[]string{"-j", "8"}, 8},
	}
	for _, tc := range cases {
		if got := parseCampaign(t, tc.args...).Workers; got != tc.want {
			t.Fatalf("%v: workers = %d, want %d", tc.args, got, tc.want)
		}
	}
}

func TestCampaignFlagRejectsNegativeWorkers(t *testing.T) {
	for _, arg := range []string{"-3", "x"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		AddCampaignFlags(fs)
		if err := fs.Parse([]string{"-j", arg}); err == nil {
			t.Fatalf("-j %s parsed without an error", arg)
		}
	}
}

func TestPolicyList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"all", nil},
		{" ALL ", nil},
		{"", nil},
		{"AMPoM", []string{"AMPoM"}},
		{" AMPoM , mem-usher ,", []string{"AMPoM", "mem-usher"}},
	}
	for _, tc := range cases {
		got := PolicyList(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("PolicyList(%q) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("PolicyList(%q) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestCampaignFlagSeed(t *testing.T) {
	if c := parseCampaign(t, "-seed", "7"); c.Seed != 7 {
		t.Fatalf("seed = %d", c.Seed)
	}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	seed := AddSeedFlag(fs)
	if err := fs.Parse([]string{"-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if *seed != 9 {
		t.Fatalf("seed-only flag = %d", *seed)
	}
}
