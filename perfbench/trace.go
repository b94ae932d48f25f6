package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ampom/internal/sched"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own side of the call. Aggregate spans stand for many short
// calls (balancer decisions) whose durations are summed rather than kept
// one by one; they carry no interval of their own.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
	Calls  int     `json:"calls,omitempty"`
	Agg    bool    `json:"aggregate,omitempty"`
}

// tracer keeps spans in memory for the whole run; write dumps them at exit.
// A nil tracer records nothing, so untraced code paths call it freely.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		StartS: time.Since(t.t0).Seconds()})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.DurS = time.Since(t.t0).Seconds() - s.StartS
}

// add records a finished span after the fact: an interval [start,
// start+dur), or with agg set, the summed duration of calls calls.
func (t *tracer) add(parent int, layer, name string, start time.Time, dur time.Duration, calls int, agg bool) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name,
		StartS: start.Sub(t.t0).Seconds(), DurS: dur.Seconds(), Calls: calls, Agg: agg})
	return id
}

// selfByLayer sums every span's self time — its duration minus the part
// covered by its children — per layer. Interval children cover their union;
// aggregate children cover their summed duration. Coverage is capped at the
// parent's duration, since parallel children can overlap it several times.
func (t *tracer) selfByLayer() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type iv struct{ a, b float64 }
	kids := make(map[int][]iv)
	aggs := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		if s.Agg {
			aggs[s.Parent] += s.DurS
		} else {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartS, s.StartS + s.DurS})
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, curA, curB := 0.0, 0.0, -1.0
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		covered += aggs[s.ID]
		if covered > s.DurS {
			covered = s.DurS
		}
		out[s.Layer] += s.DurS - covered
	}
	return out
}

// write dumps the spans and per-layer self times as JSON into dir.
func (t *tracer) write(dir string, meta hostMeta) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := t.selfByLayer()
	t.mu.Lock()
	doc := struct {
		Meta   hostMeta           `json:"meta"`
		SelfS  map[string]float64 `json:"self_s"`
		Spans  []span             `json:"spans"`
		Schema string             `json:"schema"`
	}{meta, self, t.spans, "workload > job > policy > decision; probes are siblings of the jobs"}
	data, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", meta.Workload, meta.Seed))
	return path, os.WriteFile(path, data, 0o644)
}

// decideStats counts one wrapped policy's decisions within one policy run.
// A policy run executes its balance rounds on one goroutine, and every
// (job, policy) pair gets its own wrapper, so no locking is needed.
type decideStats struct {
	calls, accepted int
	dur             time.Duration
}

// tracedPolicy times ShouldMigrate calls of a deterministic policy under a
// distinct registry name. The policy ignores the name-seeded decision
// stream, so its rows match the unwrapped policy's in every model column.
type tracedPolicy struct {
	sched.BalancerPolicy
	name string
	st   *decideStats
}

func (p *tracedPolicy) Name() string { return p.name }

func (p *tracedPolicy) ShouldMigrate(v sched.View, pv sched.ProcView) (int, bool) {
	t := time.Now()
	dest, ok := p.BalancerPolicy.ShouldMigrate(v, pv)
	p.st.dur += time.Since(t)
	p.st.calls++
	if ok {
		p.st.accepted++
	}
	return dest, ok
}

// tracedFullCopy is tracedPolicy for policies that declare their own
// freeze payload and paging mode (openMosix), forwarding both extensions
// so the scenario engine charges the wrapped run identically.
type tracedFullCopy struct {
	*tracedPolicy
	sizer sched.FreezePayloadSizer
	pager sched.RemotePager
}

func (p tracedFullCopy) FreezePayloadBytes(mb int64) int64 { return p.sizer.FreezePayloadBytes(mb) }
func (p tracedFullCopy) RemotePages() bool                 { return p.pager.RemotePages() }

// tracedNames are the policies the traced run wraps: the deterministic
// non-baseline ones, whose decisions do not draw on the policy stream.
var tracedNames = []string{sched.NameAMPoM, sched.NameOpenMosix, sched.NameMemUsher}

var wrapSeq atomic.Int64

// wrapPolicy registers a fresh traced wrapper around the named policy and
// returns its registry name and decision counters.
func wrapPolicy(inner string) (string, *decideStats, error) {
	p, ok := sched.Lookup(inner)
	if !ok {
		return "", nil, fmt.Errorf("unknown policy %q", inner)
	}
	st := &decideStats{}
	tp := &tracedPolicy{BalancerPolicy: p, name: fmt.Sprintf("traced.%s.%d", inner, wrapSeq.Add(1)), st: st}
	sizer, hasSizer := p.(sched.FreezePayloadSizer)
	pager, hasPager := p.(sched.RemotePager)
	var w sched.BalancerPolicy = tp
	switch {
	case hasSizer && hasPager:
		w = tracedFullCopy{tp, sizer, pager}
	case hasSizer || hasPager:
		return "", nil, fmt.Errorf("policy %q implements only one of the payload extensions", inner)
	}
	if err := sched.Register(w); err != nil {
		return "", nil, err
	}
	return tp.name, st, nil
}
