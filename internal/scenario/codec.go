// Scenario I/O: a versioned JSON codec for Spec and JSON/CSV encoders for
// Report, so scenarios and their outcomes are shareable on-disk artefacts
// (the ROADMAP's "Scenario I/O" item).
//
// The codec is strict and total: unknown fields are rejected (a typo never
// silently runs the default), omitted fields take the Canonical defaults,
// and the version field gates format evolution. Decoding always returns a
// canonical, validated Spec, so decode→encode→decode is the identity — the
// property FuzzSpecRoundTrip locks in. Every encoder is a pure function of
// its value: equal reports render byte-identical JSON and CSV whatever
// worker pool produced them.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"ampom/internal/fabric"
	"ampom/internal/netmodel"
	"ampom/internal/simtime"
)

// SpecVersion is the on-disk spec format version this codec reads and
// writes.
const SpecVersion = 1

// specJSON is the on-disk shape of a Spec. Enums travel as their String()
// names and durations as Go duration strings ("250ms"), so files are
// hand-editable.
type specJSON struct {
	Version          int          `json:"version"`
	Name             string       `json:"name,omitempty"`
	Nodes            int          `json:"nodes,omitempty"`
	Procs            int          `json:"procs,omitempty"`
	SlowFrac         float64      `json:"slow_frac,omitempty"`
	FastFrac         float64      `json:"fast_frac,omitempty"`
	SlowScale        float64      `json:"slow_scale,omitempty"`
	FastScale        float64      `json:"fast_scale,omitempty"`
	Arrival          string       `json:"arrival,omitempty"`
	MeanInterarrival string       `json:"mean_interarrival,omitempty"`
	Placement        string       `json:"placement,omitempty"`
	Skew             float64      `json:"skew,omitempty"`
	MeanCompute      string       `json:"mean_compute,omitempty"`
	MeanFootprintMB  int64        `json:"mean_footprint_mb,omitempty"`
	NodeMemMB        int64        `json:"node_mem_mb,omitempty"`
	Mix              []mixJSON    `json:"mix,omitempty"`
	Policies         []string     `json:"policies,omitempty"`
	LoadVectorLen    int          `json:"load_vector_len,omitempty"`
	Evacuate         bool         `json:"evacuate,omitempty"`
	Network          *networkJSON `json:"network,omitempty"`
	Fabric           *fabricJSON  `json:"fabric,omitempty"`
	BackgroundLoad   float64      `json:"background_load,omitempty"`
	BalancePeriod    string       `json:"balance_period,omitempty"`
	CostThreshold    float64      `json:"cost_threshold,omitempty"`
	Quantum          string       `json:"quantum,omitempty"`
	MaxSimTime       string       `json:"max_sim_time,omitempty"`
	Churn            []churnJSON  `json:"churn,omitempty"`
}

type mixJSON struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

type networkJSON struct {
	Name          string  `json:"name,omitempty"`
	LatencyOneWay string  `json:"latency_one_way,omitempty"`
	BandwidthBps  float64 `json:"bandwidth_bps,omitempty"`
}

// fabricJSON is the on-disk shape of the Fabric block. The legacy star
// default is encoded by omitting the block entirely, so pre-fabric spec
// documents decode (and re-encode) unchanged.
type fabricJSON struct {
	Topology     string  `json:"topology"`
	RackSize     int     `json:"rack_size,omitempty"`
	Oversub      float64 `json:"oversubscription,omitempty"`
	GossipFanout int     `json:"gossip_fanout,omitempty"`
	GossipPeriod string  `json:"gossip_period,omitempty"`
	GossipWindow int     `json:"gossip_window,omitempty"`
}

type churnJSON struct {
	At     string  `json:"at"`
	Kind   string  `json:"kind"`
	Node   int     `json:"node"`
	Factor float64 `json:"factor,omitempty"`
	Procs  int     `json:"procs,omitempty"`
}

// fmtDur renders a duration in the Go notation time.ParseDuration reads
// back exactly.
func fmtDur(d simtime.Duration) string { return d.String() }

// parseDur reads a Go duration string; empty means "use the default".
func parseDur(field, s string) (simtime.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("scenario: field %s: %w", field, err)
	}
	return simtime.FromStd(d), nil
}

// parseMixKind resolves a mix name.
func parseMixKind(s string) (MixKind, error) {
	for _, k := range []MixKind{MixSequential, MixBlocked, MixRandom, MixSmallWS} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown mix kind %q", s)
}

// parseArrival resolves an arrival-model name; empty means the default.
func parseArrival(s string) (ArrivalModel, error) {
	switch s {
	case "", ArrivalBatch.String():
		return ArrivalBatch, nil
	case ArrivalPoisson.String():
		return ArrivalPoisson, nil
	}
	return 0, fmt.Errorf("scenario: unknown arrival model %q", s)
}

// parsePlacement resolves a placement name; empty means the default.
func parsePlacement(s string) (Placement, error) {
	switch s {
	case "", PlaceSkewed.String():
		return PlaceSkewed, nil
	case PlaceRoundRobin.String():
		return PlaceRoundRobin, nil
	}
	return 0, fmt.Errorf("scenario: unknown placement %q", s)
}

// parseChurnKind resolves a churn-kind name against the registry, so any
// kind String() renders is guaranteed to parse back.
func parseChurnKind(s string) (ChurnKind, error) {
	for i, name := range churnKindNames {
		if s == name {
			return ChurnKind(i), nil
		}
	}
	return 0, fmt.Errorf("scenario: unknown churn kind %q", s)
}

// toJSON converts a canonical Spec into its on-disk shape.
func (s Spec) toJSON() specJSON {
	out := specJSON{
		Version:          SpecVersion,
		Name:             s.Name,
		Nodes:            s.Nodes,
		Procs:            s.Procs,
		SlowFrac:         s.SlowFrac,
		FastFrac:         s.FastFrac,
		SlowScale:        s.SlowScale,
		FastScale:        s.FastScale,
		Arrival:          s.Arrival.String(),
		MeanInterarrival: fmtDur(s.MeanInterarrival),
		Placement:        s.Placement.String(),
		Skew:             s.Skew,
		MeanCompute:      fmtDur(s.MeanCompute),
		MeanFootprintMB:  s.MeanFootprintMB,
		NodeMemMB:        s.NodeMemMB,
		Policies:         s.Policies,
		LoadVectorLen:    s.LoadVectorLen,
		Evacuate:         s.Evacuate,
		BackgroundLoad:   s.BackgroundLoad,
		BalancePeriod:    fmtDur(s.BalancePeriod),
		CostThreshold:    s.CostThreshold,
		Quantum:          fmtDur(s.Quantum),
		MaxSimTime:       fmtDur(s.MaxSimTime),
	}
	for _, m := range s.Mix {
		out.Mix = append(out.Mix, mixJSON{Kind: m.Kind.String(), Weight: m.Weight})
	}
	out.Network = &networkJSON{
		Name:          s.Network.Name,
		LatencyOneWay: fmtDur(s.Network.LatencyOneWay),
		BandwidthBps:  s.Network.BandwidthBps,
	}
	if f := s.Fabric.Canonical(); !f.IsDefault() {
		out.Fabric = &fabricJSON{
			Topology:     f.Topology.String(),
			RackSize:     f.RackSize,
			Oversub:      f.Oversub,
			GossipFanout: f.GossipFanout,
			GossipPeriod: fmtDur(f.GossipPeriod),
			GossipWindow: f.GossipWindow,
		}
	}
	for _, c := range s.Churn {
		out.Churn = append(out.Churn, churnJSON{
			At: fmtDur(c.At), Kind: c.Kind.String(), Node: c.Node,
			Factor: c.Factor, Procs: c.Procs,
		})
	}
	return out
}

// fromJSON converts the on-disk shape back into a Spec (not yet canonical).
func (sj specJSON) fromJSON() (Spec, error) {
	s := Spec{
		Name:            sj.Name,
		Nodes:           sj.Nodes,
		Procs:           sj.Procs,
		SlowFrac:        sj.SlowFrac,
		FastFrac:        sj.FastFrac,
		SlowScale:       sj.SlowScale,
		FastScale:       sj.FastScale,
		Skew:            sj.Skew,
		MeanFootprintMB: sj.MeanFootprintMB,
		NodeMemMB:       sj.NodeMemMB,
		Policies:        sj.Policies,
		LoadVectorLen:   sj.LoadVectorLen,
		Evacuate:        sj.Evacuate,
		BackgroundLoad:  sj.BackgroundLoad,
		CostThreshold:   sj.CostThreshold,
	}
	var err error
	if s.Arrival, err = parseArrival(sj.Arrival); err != nil {
		return Spec{}, err
	}
	if s.Placement, err = parsePlacement(sj.Placement); err != nil {
		return Spec{}, err
	}
	if s.MeanInterarrival, err = parseDur("mean_interarrival", sj.MeanInterarrival); err != nil {
		return Spec{}, err
	}
	if s.MeanCompute, err = parseDur("mean_compute", sj.MeanCompute); err != nil {
		return Spec{}, err
	}
	if s.BalancePeriod, err = parseDur("balance_period", sj.BalancePeriod); err != nil {
		return Spec{}, err
	}
	if s.Quantum, err = parseDur("quantum", sj.Quantum); err != nil {
		return Spec{}, err
	}
	if s.MaxSimTime, err = parseDur("max_sim_time", sj.MaxSimTime); err != nil {
		return Spec{}, err
	}
	for _, m := range sj.Mix {
		k, err := parseMixKind(m.Kind)
		if err != nil {
			return Spec{}, err
		}
		s.Mix = append(s.Mix, MixWeight{Kind: k, Weight: m.Weight})
	}
	if sj.Network != nil {
		lat, err := parseDur("network.latency_one_way", sj.Network.LatencyOneWay)
		if err != nil {
			return Spec{}, err
		}
		s.Network = netmodel.Profile{
			Name:          sj.Network.Name,
			LatencyOneWay: lat,
			BandwidthBps:  sj.Network.BandwidthBps,
		}
	}
	if sj.Fabric != nil {
		kind, err := fabric.ParseKind(sj.Fabric.Topology)
		if err != nil {
			return Spec{}, fmt.Errorf("scenario: %w", err)
		}
		period, err := parseDur("fabric.gossip_period", sj.Fabric.GossipPeriod)
		if err != nil {
			return Spec{}, err
		}
		s.Fabric = FabricSpec{
			Topology:     kind,
			RackSize:     sj.Fabric.RackSize,
			Oversub:      sj.Fabric.Oversub,
			GossipFanout: sj.Fabric.GossipFanout,
			GossipPeriod: period,
			GossipWindow: sj.Fabric.GossipWindow,
		}
	}
	for i, c := range sj.Churn {
		k, err := parseChurnKind(c.Kind)
		if err != nil {
			return Spec{}, fmt.Errorf("scenario: churn[%d]: %w", i, err)
		}
		at, err := parseDur(fmt.Sprintf("churn[%d].at", i), c.At)
		if err != nil {
			return Spec{}, err
		}
		s.Churn = append(s.Churn, ChurnEvent{
			At: at, Kind: k, Node: c.Node, Factor: c.Factor, Procs: c.Procs,
		})
	}
	return s, nil
}

// EncodeSpec renders the canonical form of s as versioned, indented JSON.
// It fails on a spec that does not validate, so an encoded spec always
// decodes.
func EncodeSpec(s Spec) ([]byte, error) {
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(s.toJSON(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeSpec parses a versioned JSON spec: unknown fields are rejected,
// omitted fields take the Canonical defaults, and the result is validated.
// The returned Spec is canonical, so DecodeSpec∘EncodeSpec is the identity.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sj specJSON
	if err := dec.Decode(&sj); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("scenario: trailing data after spec document")
	}
	if sj.Version != SpecVersion {
		return Spec{}, fmt.Errorf("scenario: unsupported spec version %d (want %d)", sj.Version, SpecVersion)
	}
	s, err := sj.fromJSON()
	if err != nil {
		return Spec{}, err
	}
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadSpec reads a spec file written by SaveSpec (or by hand).
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	return DecodeSpec(data)
}

// SaveSpec writes the canonical form of s to path as versioned JSON.
func SaveSpec(path string, s Spec) error {
	data, err := EncodeSpec(s)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	return nil
}

// ReportVersion is the on-disk report format version.
const ReportVersion = 1

// reportJSON is the on-disk shape of a Report.
type reportJSON struct {
	Version  int          `json:"version"`
	Spec     specJSON     `json:"spec"`
	Seed     uint64       `json:"seed"`
	Procs    int          `json:"procs"`
	Policies []schemeJSON `json:"policies"`
}

type schemeJSON struct {
	Policy         string  `json:"policy"`
	MakespanS      float64 `json:"makespan_s"`
	MeanSlowdown   float64 `json:"mean_slowdown"`
	SlowdownVsBase float64 `json:"slowdown_vs_base"`
	Migrations     int     `json:"migrations"`
	FrozenS        float64 `json:"frozen_s"`
	ExtraWorkS     float64 `json:"extra_work_s"`
	HardFaults     int64   `json:"hard_faults"`
	PrefetchPages  int64   `json:"prefetch_pages"`
	MigrationBytes int64   `json:"migration_bytes"`
	Unfinished     int     `json:"unfinished"`
	FinalRTTMs     float64 `json:"final_rtt_ms"`
	Events         uint64  `json:"events"`
	// The failure plane's SLO percentiles and event counters. Populated
	// only by failure-churn runs, and omitted at zero, so legacy report
	// documents keep their exact shape.
	SojournP50S float64    `json:"sojourn_p50_s,omitempty"`
	SojournP95S float64    `json:"sojourn_p95_s,omitempty"`
	SojournP99S float64    `json:"sojourn_p99_s,omitempty"`
	Crashes     int        `json:"crashes,omitempty"`
	Evacuations int        `json:"evacuations,omitempty"`
	FailBacks   int        `json:"fail_backs,omitempty"`
	Tiers       []tierJSON `json:"tiers,omitempty"`
}

// tierJSON is one interconnect tier's utilisation row (switched fabrics
// only; legacy star reports omit the field).
type tierJSON struct {
	Tier        string  `json:"tier"`
	Links       int     `json:"links"`
	CapacityBps float64 `json:"capacity_bps"`
	Bytes       int64   `json:"bytes"`
}

// schemeToJSON converts one policy row.
func schemeToJSON(st SchemeStats) schemeJSON {
	out := schemeJSON{
		Policy:         st.Policy,
		MakespanS:      st.Makespan.Seconds(),
		MeanSlowdown:   st.MeanSlowdown,
		SlowdownVsBase: st.SlowdownVsBase,
		Migrations:     st.Migrations,
		FrozenS:        st.FrozenTotal.Seconds(),
		ExtraWorkS:     st.ExtraWork.Seconds(),
		HardFaults:     st.HardFaults,
		PrefetchPages:  st.PrefetchPages,
		MigrationBytes: st.MigrationBytes,
		Unfinished:     st.Unfinished,
		FinalRTTMs:     st.FinalRTT.Milliseconds(),
		Events:         st.Events,
		SojournP50S:    st.SojournP50.Seconds(),
		SojournP95S:    st.SojournP95.Seconds(),
		SojournP99S:    st.SojournP99.Seconds(),
		Crashes:        st.Crashes,
		Evacuations:    st.Evacuations,
		FailBacks:      st.FailBacks,
	}
	for _, tu := range st.TierUse {
		out.Tiers = append(out.Tiers, tierJSON{
			Tier: tu.Name, Links: tu.Links, CapacityBps: tu.CapacityBps, Bytes: tu.Bytes,
		})
	}
	return out
}

// toReportJSON converts a report into its on-disk shape — the single
// construction both the object and array encodings share.
func (r *Report) toReportJSON() reportJSON {
	out := reportJSON{
		Version: ReportVersion,
		Spec:    r.Spec.Canonical().toJSON(),
		Seed:    r.Seed,
		Procs:   r.Procs,
	}
	for _, st := range r.Schemes {
		out.Policies = append(out.Policies, schemeToJSON(st))
	}
	return out
}

// JSON renders the report as indented JSON with rows in the report's
// (registry-sorted) policy order. The encoding is a pure function of the
// report, so equal-seed runs are byte-identical at any worker count.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r.toReportJSON(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// ReportsJSON renders several reports as one JSON array, for batch runs.
func ReportsJSON(reports []*Report) ([]byte, error) {
	outs := make([]reportJSON, 0, len(reports))
	for _, r := range reports {
		if r == nil {
			continue
		}
		outs = append(outs, r.toReportJSON())
	}
	b, err := json.MarshalIndent(outs, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding reports: %w", err)
	}
	return append(b, '\n'), nil
}

// csvColumn is one per-policy column of the CSV report encoding: a
// schemeJSON field, named by its wire name.
type csvColumn struct {
	name  string
	field int
}

// csvColumns is the legacy column set; csvFailureColumns extends it with
// the failure plane's columns. A document uses the extended set when any
// of its reports ran failure churn (every row must share one column
// count); failure-free documents keep the legacy header byte-for-byte.
var csvColumns, csvFailureColumns = csvSchemeColumns()

// csvSchemeColumns reads the per-policy columns off schemeJSON in
// declaration order. The omitempty fields are the failure plane's SLO and
// event-counter columns, which only the extended set carries; the tier
// rows have no cell form and stay out of both.
func csvSchemeColumns() (legacy, extended []csvColumn) {
	var failure []csvColumn
	t := reflect.TypeFor[schemeJSON]()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() == reflect.Slice {
			continue
		}
		col := csvColumn{name: jsonFieldName(f), field: i}
		if strings.HasSuffix(f.Tag.Get("json"), ",omitempty") {
			failure = append(failure, col)
		} else {
			legacy = append(legacy, col)
		}
	}
	return legacy, append(slices.Clip(legacy), failure...)
}

// fmtFloat renders a float with the shortest representation that parses
// back exactly — deterministic and lossless.
func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// csvHeader renders the header line. The scenario and seed columns make
// concatenated multi-report files self-describing.
func csvHeader(b *strings.Builder, cols []csvColumn) {
	b.WriteString("scenario,seed")
	for _, c := range cols {
		b.WriteByte(',')
		b.WriteString(c.name)
	}
	b.WriteByte('\n')
}

// csvRows appends the report's data rows (no header), one cell per column
// of cols, read off the row's wire form.
func (r *Report) csvRows(b *strings.Builder, cols []csvColumn) {
	for _, st := range r.Schemes {
		row := reflect.ValueOf(schemeToJSON(st))
		b.WriteString(r.Spec.Name)
		b.WriteByte(',')
		b.WriteString(strconv.FormatUint(r.Seed, 10))
		for _, c := range cols {
			b.WriteByte(',')
			if v := row.Field(c.field); v.Kind() == reflect.Float64 {
				b.WriteString(fmtFloat(v.Float()))
			} else {
				fmt.Fprint(b, v.Interface()) // the policy name and the integer counts
			}
		}
		b.WriteByte('\n')
	}
}

// csvColumnsFor picks the columns of a document covering the given
// reports: the extended failure set when any report ran failure churn, the
// legacy set otherwise.
func csvColumnsFor(reports []*Report) []csvColumn {
	for _, r := range reports {
		if r != nil && r.Spec.HasFailures() {
			return csvFailureColumns
		}
	}
	return csvColumns
}

// CSV renders the report as comma-separated values, one row per policy in
// the report's (registry-sorted) order.
func (r *Report) CSV() string {
	return ReportsCSV([]*Report{r})
}

// ReportsCSV renders several reports as one CSV document with a single
// header; the scenario and seed columns distinguish the runs.
func ReportsCSV(reports []*Report) string {
	var b strings.Builder
	cols := csvColumnsFor(reports)
	csvHeader(&b, cols)
	for _, r := range reports {
		if r == nil {
			continue
		}
		r.csvRows(&b, cols)
	}
	return b.String()
}
