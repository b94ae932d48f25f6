package cli

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// This file dedupes the campaign flag plumbing every binary used to repeat:
// -seed and -j are registered once here, and -j's range check lives in one
// place instead of being copied into each main.

// CampaignFlags holds the campaign-engine flags the cmd/ binaries share.
// Read the fields after flag parsing.
type CampaignFlags struct {
	// Seed is the campaign base seed every per-job seed derives from.
	Seed uint64
	// Workers is the -j worker pool size: 0 means GOMAXPROCS, 1 runs
	// strictly sequentially. Per-job seeds are derived from job keys, so
	// every setting renders byte-identical output.
	Workers int
}

// AddCampaignFlags registers -seed and -j on fs (the binaries pass
// flag.CommandLine) and returns the destination struct. A negative -j is
// a parse error, which flag.CommandLine reports as a usage error
// (CodeUsage).
func AddCampaignFlags(fs *flag.FlagSet) *CampaignFlags {
	c := &CampaignFlags{}
	fs.Uint64Var(&c.Seed, "seed", 42, "campaign base seed")
	fs.Func("j", "worker pool size (0 = GOMAXPROCS, 1 = sequential)", func(s string) error {
		n, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("must be >= 0, have %d", n)
		}
		c.Workers = int(n)
		return nil
	})
	return c
}

// AddSeedFlag registers just -seed, for binaries without a worker pool.
func AddSeedFlag(fs *flag.FlagSet) *uint64 {
	seed := fs.Uint64("seed", 42, "seed for all stochastic components")
	return seed
}

// PolicyList parses a -policies flag value: a comma-separated name list,
// trimmed, empties dropped. "all" (or an empty value) returns nil, which
// scenario canonicalisation resolves to every registered policy. One
// parser serves every binary so the flag cannot drift between them.
func PolicyList(s string) []string {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return nil
	}
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}
