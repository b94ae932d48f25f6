// Scenario I/O: a versioned JSON codec for Spec and JSON/CSV encoders for
// Report, so scenarios and their outcomes are shareable on-disk artefacts
// (the ROADMAP's "Scenario I/O" item).
//
// The spec format is the json tags on Spec and its parts (FabricSpec,
// MixWeight, ChurnEvent, netmodel.Profile), so each key is written once.
// Enums travel as their String() names and durations as Go duration
// strings ("250ms"), through the types' own text methods, so files are
// hand-editable. The codec is strict and total: unknown fields are
// rejected (a typo never silently runs the default), omitted fields take
// the Canonical defaults, and the version field gates format evolution.
// Decoding always returns a canonical, validated Spec, so
// decode→encode→decode is the identity — the property FuzzSpecRoundTrip
// locks in. Every encoder is a pure function of its value: equal reports
// render byte-identical JSON and CSV whatever worker pool produced them.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// SpecVersion is the on-disk spec format version this codec reads and
// writes.
const SpecVersion = 1

// specDoc is the on-disk shape of a Spec: the format version, then the
// spec's own fields.
type specDoc struct {
	Version int `json:"version"`
	Spec
}

// parseName resolves a dense enum (values 0 through n-1) by its String()
// name. The empty name is the zero value where the field has a default
// (emptyOK) and an error otherwise.
func parseName[T interface {
	~uint8
	fmt.Stringer
}](what string, text []byte, n int, emptyOK bool) (T, error) {
	if emptyOK && len(text) == 0 {
		return 0, nil
	}
	for v := T(0); int(v) < n; v++ {
		if v.String() == string(text) {
			return v, nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q", what, text)
}

// MarshalText renders the mix as its name.
func (k MixKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a mix name.
func (k *MixKind) UnmarshalText(text []byte) (err error) {
	*k, err = parseName[MixKind]("mix kind", text, int(MixSmallWS)+1, false)
	return err
}

// MarshalText renders the model as its name.
func (a ArrivalModel) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText reads a model name; empty means batch.
func (a *ArrivalModel) UnmarshalText(text []byte) (err error) {
	*a, err = parseName[ArrivalModel]("arrival model", text, int(ArrivalPoisson)+1, true)
	return err
}

// MarshalText renders the placement as its name.
func (p Placement) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText reads a placement name; empty means skewed.
func (p *Placement) UnmarshalText(text []byte) (err error) {
	*p, err = parseName[Placement]("placement", text, int(PlaceRoundRobin)+1, true)
	return err
}

// MarshalText renders the kind as its name.
func (k ChurnKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText reads a churn-kind name from the churnKindNames registry.
func (k *ChurnKind) UnmarshalText(text []byte) (err error) {
	*k, err = parseName[ChurnKind]("churn kind", text, len(churnKindNames), false)
	return err
}

// unsetKind is the kind a mix entry or churn event holds while it decodes;
// no registered kind has this value.
const unsetKind = 0xff

// decodeKinded decodes a mix entry or churn event into v, whose kind field
// is *kind. The kind has no default: a document naming none is rejected,
// as one naming an unknown kind is.
func decodeKinded[T any, K ~uint8](data []byte, v *T, kind *K, what string) error {
	*kind = unsetKind
	if err := decodeStrict(data, v); err != nil {
		return err
	}
	if *kind == unsetKind {
		return fmt.Errorf("%s without a kind", what)
	}
	return nil
}

// UnmarshalJSON decodes a mix entry, which must name its kind.
func (m *MixWeight) UnmarshalJSON(data []byte) error {
	type entry MixWeight // the fields without this method
	return decodeKinded(data, (*entry)(m), &m.Kind, "mix entry")
}

// UnmarshalJSON decodes a churn event, which must name its kind.
func (c *ChurnEvent) UnmarshalJSON(data []byte) error {
	type event ChurnEvent // the fields without this method
	return decodeKinded(data, (*event)(c), &c.Kind, "churn event")
}

// decodeStrict decodes the JSON document in data into v, rejecting unknown
// fields and trailing data. The values that decode themselves (mix entries,
// churn events) use it too, so the rejection holds at every depth.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.Decode(new(json.RawMessage)) != io.EOF {
		return errors.New("trailing data after the document")
	}
	return nil
}

// EncodeSpec renders the canonical form of s as versioned, indented JSON.
// It fails on a spec that does not validate, so an encoded spec always
// decodes.
func EncodeSpec(s Spec) ([]byte, error) {
	s = s.Canonical()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(specDoc{Version: SpecVersion, Spec: s}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeSpec parses a versioned JSON spec: unknown fields are rejected,
// omitted fields take the Canonical defaults, and the result is validated.
// The returned Spec is canonical, so DecodeSpec∘EncodeSpec is the identity.
func DecodeSpec(data []byte) (Spec, error) {
	var doc specDoc
	if err := decodeStrict(data, &doc); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if err := checkSpecVersion(doc.Version); err != nil {
		return Spec{}, err
	}
	s := doc.Spec.Canonical()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// checkSpecVersion rejects a spec document, standalone or inside a report,
// written in a format version this codec does not read.
func checkSpecVersion(v int) error {
	if v != SpecVersion {
		return fmt.Errorf("scenario: unsupported spec version %d (want %d)", v, SpecVersion)
	}
	return nil
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
	Spec     specDoc      `json:"spec"`
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
		Spec:    specDoc{Version: SpecVersion, Spec: r.Spec.Canonical()},
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
