package hpcc

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ampom/internal/scenario"
	"ampom/internal/trace"
)

// The stream golden pins every workload's page-reference stream: for each
// Table 1 entry at scales 1/8 and 1/64, the §5.6 working-set DGEMM at the
// sizes Figure 10 uses at those scales, and each scenario mix's Trace and
// CoverProgram at three sizes and three seeds, it records the reference count
// and a SHA-256 over every (Page, Compute, Write). Any change to how a
// stream is built or walked that moves one reference shows up here.

const streamsGoldenPath = "testdata/streams.golden"

var updateGolden = flag.Bool("update", false, "rewrite testdata/streams.golden from the current code")

// streamDigest drains src and returns its length and the SHA-256 of its
// references, each hashed as page, compute and write flag.
func streamDigest(src interface{ Next() (trace.Ref, bool) }) (int64, string) {
	h := sha256.New()
	var buf [17]byte
	var n int64
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.Page))
		binary.LittleEndian.PutUint64(buf[8:], uint64(r.Compute))
		buf[16] = 0
		if r.Write {
			buf[16] = 1
		}
		h.Write(buf[:])
		n++
	}
	return n, fmt.Sprintf("%x", h.Sum(nil))
}

// streamsGolden renders the golden's lines from the current code.
func streamsGolden(t *testing.T) string {
	var b strings.Builder
	line := func(name string, src interface{ Next() (trace.Ref, bool) }) {
		n, sum := streamDigest(src)
		fmt.Fprintf(&b, "%s refs=%d sha256=%s\n", name, n, sum)
	}
	for _, div := range []int64{8, 64} {
		for _, e := range Catalogue() {
			w, err := Build(Scaled(e, div), 11)
			if err != nil {
				t.Fatal(err)
			}
			line(fmt.Sprintf("scale1/%d %s", div, w.Name), w.Source.Open())
		}
		alloc := Scaled(Largest(DGEMM), div).MemoryMB
		for _, frac := range []int64{5, 4, 3, 2, 1} {
			w, err := BuildWorkingSet(alloc, max(alloc/frac, 1), 11)
			if err != nil {
				t.Fatal(err)
			}
			line(fmt.Sprintf("scale1/%d %s", div, w.Name), w.Source.Open())
		}
	}
	for _, mix := range []scenario.MixKind{scenario.MixSequential, scenario.MixBlocked, scenario.MixRandom, scenario.MixSmallWS} {
		for _, pages := range []int64{1, 777, 40_000} {
			for _, seed := range []uint64{1, 9001, 0xdeadbeef} {
				line(fmt.Sprintf("mix %s trace pages=%d seed=%d", mix, pages, seed), mix.Trace(pages, seed)())
				line(fmt.Sprintf("mix %s cover pages=%d seed=%d", mix, pages, seed), mix.CoverProgram(pages, seed).Open())
			}
		}
	}
	return b.String()
}

// TestStreamsGolden compares every pinned stream against
// testdata/streams.golden; regenerate it on purpose with
// `go test ./internal/hpcc -run TestStreamsGolden -update`.
func TestStreamsGolden(t *testing.T) {
	got := streamsGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(streamsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(streamsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamsGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("golden has %d lines, the code renders %d", len(wantLines), len(gotLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
		}
	}
}
