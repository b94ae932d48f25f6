package core

import (
	"slices"
	"testing"

	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// FuzzPrefetcherFault drives the AMPoM engine with arbitrary fault address
// streams — every configuration the fuzzer can reach, every byte-derived
// page sequence — and checks the per-fault analysis invariants the
// migration executor relies on: the score stays in [0, 1], the dependent
// zone respects the cap and the address-space bounds, and the zone never
// contains duplicates. On every fault it also checks the allocation-free
// analysis against refAnalyze, the frozen original: Score, NReal, N,
// Streams, Pivots and Zone must be identical.
//
// At fault number resetAt (if the stream is that long) the prefetcher is
// Reset to an address space of resetPages+1 pages, and from there on a
// fresh MustNew of that size is fed the same faults: every Analysis of the
// two, and their fault and prefetch counts, must be identical — Reset
// leaves exactly New's state. Run with `go test -fuzz FuzzPrefetcherFault`;
// `make ci` gives it a 10 s smoke.
func FuzzPrefetcherFault(f *testing.F) {
	// Seed corpus: a sequential sweep, a strided reader, random-ish noise,
	// a constant page, and descending addresses, over assorted configs.
	// Most never reset; the first resets mid-sweep to a space that cuts
	// the sweep off, the strided one to a larger space.
	const never = uint16(0xffff)
	f.Add(uint8(20), uint8(4), uint16(128), false, uint16(3), uint16(0x0405), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(10), uint8(2), uint16(32), true, uint16(2), uint16(0x7fff), []byte{0, 3, 6, 9, 12, 15, 18, 21})
	f.Add(uint8(5), uint8(1), uint16(8), false, never, never, []byte{200, 17, 93, 4, 150, 62, 255, 0, 31})
	f.Add(uint8(2), uint8(1), uint16(1), true, uint16(1), uint16(0), []byte{7, 7, 7, 7, 7, 7})
	f.Add(uint8(40), uint8(8), uint16(512), false, never, never, []byte{250, 240, 230, 220, 210, 200})
	// A long window with eight interleaved sequential streams three pages
	// apart, so many pivots' runs overlap and roll quota forward, with the
	// stride exactly DMax; then, against the end of the address space, the
	// same pattern, a sequential sweep and stride-free jumps, so pivot runs
	// and read-ahead clamp at totalPages.
	f.Add(uint8(48), uint8(8), uint16(400), false, uint16(30), uint16(0x1010), interleaved(0x10, 0x00, 8, 3, 6))
	f.Add(uint8(40), uint8(9), uint16(300), true, never, never, interleaved(0xff, 0xe8, 8, 3, 5))
	f.Add(uint8(36), uint8(4), uint16(200), false, never, never, []byte{
		0xff, 0xf0, 0xff, 0xf1, 0xff, 0xf2, 0xff, 0xf3, 0xff, 0xf4, 0xff, 0xf5,
		0xff, 0xf6, 0xff, 0xf7, 0xff, 0xf8, 0xff, 0xf9, 0xff, 0xfa, 0xff, 0xfb,
	})
	f.Add(uint8(33), uint8(2), uint16(64), false, never, never, []byte{
		0xff, 0xf0, 0xff, 0xe0, 0xff, 0xfa, 0xff, 0xd0, 0xff, 0xfc,
		0xff, 0xc0, 0xff, 0xfe, 0xff, 0xb0, 0xff, 0xf8,
	})
	// Two links completing on the same page (10→11 at strides 3 and 1)
	// yield one pivot, not two.
	f.Add(uint8(8), uint8(4), uint16(16), false, never, never, []byte{0, 10, 0, 50, 0, 10, 0, 11})

	f.Fuzz(func(t *testing.T, windowLen, dmax uint8, cap16 uint16, disableBaseline bool, resetAt, resetPages uint16, stream []byte) {
		if len(stream) > 512 {
			// Each fault runs both the analysis and its reference; long
			// streams add time, not coverage.
			stream = stream[:512]
		}
		cfg := Config{
			WindowLen:   int(windowLen),
			DMax:        int(dmax),
			MaxPrefetch: int(cap16),
		}
		if disableBaseline {
			cfg.BaselineScore = -1
		}
		totalPages := int64(1 << 16)
		p, err := New(cfg, totalPages)
		if err != nil {
			t.Skip() // invalid configuration, rejected as documented
		}
		canon := cfg.Canonical()

		est := Estimates{RTT: 20 * simtime.Millisecond, PageTransfer: 400 * simtime.Microsecond}
		var now simtime.Time
		var fresh *Prefetcher // fed every fault from the reset on
		faults := int64(0)
		for i := 0; i+1 < len(stream); i += 2 {
			if i/2 == int(resetAt) {
				totalPages = int64(resetPages) + 1
				p.Reset(totalPages)
				fresh = MustNew(cfg, totalPages)
				faults = 0
			}
			// Two bytes per fault address; time advances by a byte-derived
			// step so paging rates vary.
			page := memory.PageNum(stream[i])<<8 | memory.PageNum(stream[i+1])
			now = now.Add(simtime.Duration(1+int64(stream[i]))*simtime.Microsecond + simtime.Millisecond)
			cpu := float64(stream[i+1]) / 255
			p.RecordFault(page, now, cpu)
			faults++

			a := p.Analyze(est)
			p.NotePrefetched(len(a.Zone))
			if fresh != nil {
				fresh.RecordFault(page, now, cpu)
				b := fresh.Analyze(est)
				fresh.NotePrefetched(len(b.Zone))
				if a.Score != b.Score || a.PagingRate != b.PagingRate || a.CPUMean != b.CPUMean ||
					a.CPUExpected != b.CPUExpected || a.NReal != b.NReal || a.N != b.N || a.Streams != b.Streams ||
					!samePages(a.Pivots, b.Pivots) || !samePages(a.Zone, b.Zone) {
					t.Fatalf("after Reset: analysis %+v, fresh prefetcher %+v", a, b)
				}
				if p.Faults() != fresh.Faults() || p.Prefetched() != fresh.Prefetched() || p.WindowLen() != fresh.WindowLen() {
					t.Fatalf("after Reset: %d faults, %d prefetched, window %d; fresh prefetcher %d, %d, %d",
						p.Faults(), p.Prefetched(), p.WindowLen(), fresh.Faults(), fresh.Prefetched(), fresh.WindowLen())
				}
			}
			ref := refAnalyze(p, est)
			if a.Score != ref.Score || a.NReal != ref.NReal || a.N != ref.N || a.Streams != ref.Streams {
				t.Fatalf("analysis S=%v NReal=%v N=%d m=%d, reference S=%v NReal=%v N=%d m=%d",
					a.Score, a.NReal, a.N, a.Streams, ref.Score, ref.NReal, ref.N, ref.Streams)
			}
			if !samePages(a.Pivots, ref.Pivots) {
				t.Fatalf("pivots %v, reference %v", a.Pivots, ref.Pivots)
			}
			if !samePages(a.Zone, ref.Zone) {
				t.Fatalf("zone %v, reference %v", a.Zone, ref.Zone)
			}
			if a.Score < 0 || a.Score > 1 {
				t.Fatalf("score %v out of [0,1]", a.Score)
			}
			if a.N < 0 {
				t.Fatalf("negative zone size %d", a.N)
			}
			if canon.MaxPrefetch > 0 && a.N > canon.MaxPrefetch {
				t.Fatalf("zone size %d above cap %d", a.N, canon.MaxPrefetch)
			}
			if len(a.Zone) > a.N {
				t.Fatalf("zone has %d pages for N=%d", len(a.Zone), a.N)
			}
			seen := make(map[memory.PageNum]bool, len(a.Zone))
			for _, pg := range a.Zone {
				if pg < 0 || int64(pg) >= totalPages {
					t.Fatalf("zone page %d outside the %d-page address space", pg, totalPages)
				}
				if seen[pg] {
					t.Fatalf("duplicate page %d in zone %v", pg, a.Zone)
				}
				seen[pg] = true
			}
			if a.Streams < 0 || a.Streams > p.WindowLen() {
				t.Fatalf("stream count %d outside window of %d", a.Streams, p.WindowLen())
			}
			if a.PagingRate < 0 {
				t.Fatalf("negative paging rate %v", a.PagingRate)
			}
		}
		if got, want := p.Faults(), faults; got != want {
			t.Fatalf("fault census %d, want %d", got, want)
		}
	})
}

// interleaved encodes rounds of k sequential streams whose base pages start
// at hi<<8|lo and sit gap pages apart, two bytes per fault as the fuzz
// target decodes them: round r touches base+r, base+gap+r, ….
func interleaved(hi, lo byte, k, gap, rounds int) []byte {
	base := int(hi)<<8 | int(lo)
	var out []byte
	for r := 0; r < rounds; r++ {
		for s := 0; s < k; s++ {
			pg := min(base+s*gap+r, 0xffff)
			out = append(out, byte(pg>>8), byte(pg))
		}
	}
	return out
}

// samePages reports whether a and b hold the same pages in the same order
// and are both nil or both non-nil.
func samePages(a, b []memory.PageNum) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}
