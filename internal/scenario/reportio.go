// Report input: the decoding half of the report I/O round trip. Saved
// report artefacts (ampom-cluster -o) decode back into Reports, and two
// artefacts can be compared field by field — so a checked-in report
// becomes a regression gate (`ampom-cluster -diff a.json b.json` exits
// non-zero on divergence).
//
// The comparison works at the on-disk (reportJSON) level: both sides pass
// through the identical decode transform, so two files are reported equal
// exactly when their recorded values are equal, independent of the
// float↔duration conversions the in-memory Report form performs. The gate
// is exact by default; DiffOptions loosens individual float columns by a
// relative epsilon (so noisy timing columns can gate softly while counts
// stay exact) and offers a per-column summary of the divergences.
package scenario

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"

	"ampom/internal/fabric"
	"ampom/internal/simtime"
)

// schemeFromJSON converts one on-disk policy row back to SchemeStats.
func schemeFromJSON(sj schemeJSON) SchemeStats {
	st := SchemeStats{
		Policy:         sj.Policy,
		Makespan:       simtime.FromSeconds(sj.MakespanS),
		MeanSlowdown:   sj.MeanSlowdown,
		SlowdownVsBase: sj.SlowdownVsBase,
		Migrations:     sj.Migrations,
		FrozenTotal:    simtime.FromSeconds(sj.FrozenS),
		ExtraWork:      simtime.FromSeconds(sj.ExtraWorkS),
		HardFaults:     sj.HardFaults,
		PrefetchPages:  sj.PrefetchPages,
		MigrationBytes: sj.MigrationBytes,
		Unfinished:     sj.Unfinished,
		FinalRTT:       simtime.FromSeconds(sj.FinalRTTMs / 1e3),
		Events:         sj.Events,
		SojournP50:     simtime.FromSeconds(sj.SojournP50S),
		SojournP95:     simtime.FromSeconds(sj.SojournP95S),
		SojournP99:     simtime.FromSeconds(sj.SojournP99S),
		Crashes:        sj.Crashes,
		Evacuations:    sj.Evacuations,
		FailBacks:      sj.FailBacks,
	}
	for _, t := range sj.Tiers {
		st.TierUse = append(st.TierUse, fabric.TierStats{
			Name: t.Tier, Links: t.Links, CapacityBps: t.CapacityBps, Bytes: t.Bytes,
		})
	}
	return st
}

// fromReportJSON rebuilds a Report from its on-disk shape. The spec is
// shape-validated only: a report may record a run under a custom policy
// this process never registered, and the artefact must still decode.
// decodeReportDocs has already gated the report and spec format versions.
func (rj reportJSON) fromReportJSON() (*Report, error) {
	spec := rj.Spec.Spec.Canonical()
	if err := spec.validateShape(); err != nil {
		return nil, err
	}
	rep := &Report{Spec: spec, Seed: rj.Seed, Procs: rj.Procs}
	for _, sj := range rj.Policies {
		rep.Schemes = append(rep.Schemes, schemeFromJSON(sj))
	}
	return rep, nil
}

// decodeReportDocs parses a report artefact into its on-disk rows: either
// one report object (ampom-cluster -o on a single scenario) or an array
// (batch runs). Unknown fields are rejected, as for specs, and so is a
// report or embedded spec in a format version this codec does not read.
func decodeReportDocs(data []byte) ([]reportJSON, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var docs []reportJSON
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := decodeStrict(data, &docs); err != nil {
			return nil, fmt.Errorf("scenario: decoding report array: %w", err)
		}
	} else {
		var one reportJSON
		if err := decodeStrict(data, &one); err != nil {
			return nil, fmt.Errorf("scenario: decoding report: %w", err)
		}
		docs = []reportJSON{one}
	}
	for _, d := range docs {
		if d.Version != ReportVersion {
			return nil, fmt.Errorf("scenario: unsupported report version %d (want %d)", d.Version, ReportVersion)
		}
		if err := checkSpecVersion(d.Spec.Version); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// DecodeReports parses a JSON report artefact written by Report.JSON or
// ReportsJSON — a single object or an array — back into Reports.
func DecodeReports(data []byte) ([]*Report, error) {
	docs, err := decodeReportDocs(data)
	if err != nil {
		return nil, err
	}
	out := make([]*Report, 0, len(docs))
	for _, d := range docs {
		r, err := d.fromReportJSON()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// LoadReports reads a report artefact from disk.
func LoadReports(path string) ([]*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return DecodeReports(data)
}

// jsonFieldName extracts the wire name of a struct field.
func jsonFieldName(f reflect.StructField) string {
	tag := f.Tag.Get("json")
	if i := strings.IndexByte(tag, ','); i >= 0 {
		tag = tag[:i]
	}
	if tag == "" {
		return f.Name
	}
	return tag
}

// DiffOptions tunes report comparison. The zero value is the historical
// exact gate: every recorded field must match bit for bit.
type DiffOptions struct {
	// RelEps maps a policy-row float column (by wire name, e.g.
	// "mean_slowdown" or "frozen_s") to the relative epsilon within which
	// the column still gates as equal: |a−b| ≤ eps × max(|a|,|b|). The ""
	// key is the default for every float column without an entry of its
	// own. Only float64 columns of the per-policy rows are eligible —
	// counts, spec fields, the seed and the tier rows always compare
	// exactly, so a tolerance for noisy timing columns can never mask a
	// changed migration count.
	RelEps map[string]float64
	// Summary collapses the line-per-field output into one line per
	// diverging column — divergence count plus the worst relative
	// deviation for float columns — the overview mode for artefacts whose
	// float noise is expected but whose shape must hold.
	Summary bool
}

// diffFloatColumns is the set of policy-row columns RelEps may name: the
// wire names of schemeJSON's float64 fields.
var diffFloatColumns = func() map[string]bool {
	cols := map[string]bool{}
	t := reflect.TypeOf(schemeJSON{})
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() == reflect.Float64 {
			cols[jsonFieldName(t.Field(i))] = true
		}
	}
	return cols
}()

// Validate rejects options that cannot gate as written: an epsilon that is
// negative, NaN or infinite, or a RelEps key that is neither "" nor a
// float column of the policy rows (a misspelt column would otherwise
// leave its column silently exact).
func (o DiffOptions) Validate() error {
	for _, col := range slices.Sorted(maps.Keys(o.RelEps)) {
		if col != "" && !diffFloatColumns[col] {
			return fmt.Errorf("scenario: diff epsilon names %q, not a float column (want one of %s)",
				col, strings.Join(slices.Sorted(maps.Keys(diffFloatColumns)), ", "))
		}
		if eps := o.RelEps[col]; eps < 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
			return fmt.Errorf("scenario: diff epsilon %v for column %q is not a finite non-negative value", eps, col)
		}
	}
	return nil
}

// epsFor resolves the relative epsilon of one float column.
func (o DiffOptions) epsFor(column string) float64 {
	if e, ok := o.RelEps[column]; ok {
		return e
	}
	return o.RelEps[""]
}

// relDev is the symmetric relative deviation of two floats: |a−b| scaled
// by the larger magnitude (0 when both are 0).
func relDev(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := math.Abs(a)
	if n := math.Abs(b); n > m {
		m = n
	}
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// diffCollector accumulates divergences in either output mode: verbose
// (one line per field, the historical format) or summary (one line per
// column).
type diffCollector struct {
	opts  DiffOptions
	lines []string
	count map[string]int
	worst map[string]float64
	order []string
}

func newDiffCollector(opts DiffOptions) *diffCollector {
	return &diffCollector{
		opts:  opts,
		count: map[string]int{},
		worst: map[string]float64{},
	}
}

// add records one divergence: line is the verbose form, column the summary
// bucket, rel the relative deviation (negative for non-float divergences,
// which summarise without a deviation figure).
func (d *diffCollector) add(column, line string, rel float64) {
	d.lines = append(d.lines, line)
	if _, seen := d.count[column]; !seen {
		d.order = append(d.order, column)
	}
	d.count[column]++
	if rel > d.worst[column] {
		d.worst[column] = rel
	}
}

// output renders the collected divergences in the selected mode.
func (d *diffCollector) output() []string {
	if !d.opts.Summary {
		return d.lines
	}
	out := make([]string, 0, len(d.order))
	for _, col := range d.order {
		line := fmt.Sprintf("column %s: %d divergence(s)", col, d.count[col])
		if w := d.worst[col]; w > 0 {
			line += fmt.Sprintf(", max rel dev %.3g", w)
		}
		out = append(out, line)
	}
	return out
}

// diffStructs records one divergence per differing field of two like-typed
// structs, labelling fields by their wire names. When floatCols is set
// (the per-policy rows), float64 fields gate through the options' relative
// epsilons; everything else compares exactly.
func diffStructs(prefix string, a, b any, c *diffCollector, floatCols bool) {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	t := va.Type()
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Anonymous { // the spec's fields inside its document
			diffStructs(prefix, va.Field(i).Interface(), vb.Field(i).Interface(), c, floatCols)
			continue
		}
		col := jsonFieldName(t.Field(i))
		if floatCols && t.Field(i).Type.Kind() == reflect.Float64 {
			fa, fb := va.Field(i).Float(), vb.Field(i).Float()
			if fa == fb {
				continue
			}
			rel := relDev(fa, fb)
			if eps := c.opts.epsFor(col); eps > 0 {
				if rel <= eps {
					continue
				}
				c.add(col, fmt.Sprintf("%s%s: %v != %v (rel dev %.3g > eps %g)", prefix, col, fa, fb, rel, eps), rel)
				continue
			}
			c.add(col, fmt.Sprintf("%s%s: %v != %v", prefix, col, fa, fb), rel)
			continue
		}
		fa, fb := va.Field(i).Interface(), vb.Field(i).Interface()
		if !reflect.DeepEqual(fa, fb) {
			c.add(col, fmt.Sprintf("%s%s: %v != %v", prefix, col, fa, fb), 0)
		}
	}
}

// diffDocs compares two decoded report documents row by row.
func diffDocs(idx int, a, b reportJSON, c *diffCollector) {
	label := fmt.Sprintf("report[%d]", idx)
	if !reflect.DeepEqual(a.Spec, b.Spec) {
		diffStructs(label+": spec.", a.Spec, b.Spec, c, false)
	}
	if a.Seed != b.Seed {
		c.add("seed", fmt.Sprintf("%s: seed %d != %d", label, a.Seed, b.Seed), 0)
	}
	if a.Procs != b.Procs {
		c.add("procs", fmt.Sprintf("%s: procs %d != %d", label, a.Procs, b.Procs), 0)
	}
	rows := make(map[string]schemeJSON, len(b.Policies))
	for _, r := range b.Policies {
		rows[r.Policy] = r
	}
	seen := make(map[string]bool, len(a.Policies))
	for _, ra := range a.Policies {
		seen[ra.Policy] = true
		rb, ok := rows[ra.Policy]
		if !ok {
			c.add("policies", fmt.Sprintf("%s: policy %s only in the first report", label, ra.Policy), 0)
			continue
		}
		diffStructs(fmt.Sprintf("%s: %s: ", label, ra.Policy), ra, rb, c, true)
	}
	for _, rb := range b.Policies {
		if !seen[rb.Policy] {
			c.add("policies", fmt.Sprintf("%s: policy %s only in the second report", label, rb.Policy), 0)
		}
	}
}

// DiffReportsData compares two report artefacts (each a JSON object or
// array) under opts and returns one human-readable line per divergence.
// An empty result means the artefacts gate as equal; under the zero
// options that means the recorded runs are identical.
func DiffReportsData(a, b []byte, opts DiffOptions) ([]string, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	da, err := decodeReportDocs(a)
	if err != nil {
		return nil, fmt.Errorf("scenario: first report: %w", err)
	}
	db, err := decodeReportDocs(b)
	if err != nil {
		return nil, fmt.Errorf("scenario: second report: %w", err)
	}
	c := newDiffCollector(opts)
	if len(da) != len(db) {
		c.add("reports", fmt.Sprintf("report count %d != %d", len(da), len(db)), 0)
	}
	n := len(da)
	if len(db) < n {
		n = len(db)
	}
	for i := 0; i < n; i++ {
		diffDocs(i, da[i], db[i], c)
	}
	return c.output(), nil
}

// DiffReportFiles compares two saved report artefacts by path under opts.
func DiffReportFiles(pathA, pathB string, opts DiffOptions) ([]string, error) {
	a, err := os.ReadFile(pathA)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	b, err := os.ReadFile(pathB)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return DiffReportsData(a, b, opts)
}
