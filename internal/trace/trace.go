// Package trace defines page-reference streams — the interface between
// workload models and the migration machinery — and implements the locality
// mathematics of the paper: stride detection and the spatial locality score
// of §3.2 (a variant of Weinberg et al.'s score), plus a page-level temporal
// reuse score used to reproduce the locality quadrants of Figure 4.
//
// A workload's stream is described by a Program: an immutable value built
// once from sweeps, random and block-permuted leaves and the Concat,
// Interleave, Repeat and Tile composites. A Cursor walks a program and
// holds all of the walk's state, so one program replays any number of
// times and a reset cursor replays it without allocating.
package trace

import (
	"ampom/internal/memory"
	"ampom/internal/simtime"
)

// Ref is one page-level memory reference: the process computes for Compute
// of CPU time and then touches Page. Write reports whether the touch dirties
// the page.
type Ref struct {
	Page    memory.PageNum
	Compute simtime.Duration
	Write   bool
}

// Collect drains src into a slice, up to max references (max <= 0 means no
// limit). Intended for tests and offline analysis; simulations stream.
func Collect(src *Cursor, max int) []Ref {
	var out []Ref
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Pages extracts just the page numbers of refs.
func Pages(refs []Ref) []memory.PageNum {
	out := make([]memory.PageNum, len(refs))
	for i, r := range refs {
		out[i] = r.Page
	}
	return out
}

// CollapseRepeats removes consecutive references to the same page. The
// paper treats consecutive repeated references as temporal locality and
// counts them as a single page reference (§3.1: r_p != r_{p+1}).
func CollapseRepeats(pages []memory.PageNum) []memory.PageNum {
	out := pages[:0:0]
	for i, p := range pages {
		if i == 0 || p != pages[i-1] {
			out = append(out, p)
		}
	}
	return out
}
