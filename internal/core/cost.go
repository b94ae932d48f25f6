package core

import "ampom/internal/simtime"

// The in-kernel CPU time one AMPoM analysis consumes, for the Figure 11
// overhead experiment. The constants are calibrated for the paper's 2 GHz
// Pentium 4 testbed: a window scan plus zone construction is a few
// microseconds, keeping total analysis overhead below ~0.6 % of
// application runtime.
const (
	// analysisBase covers fault-handler entry and window bookkeeping.
	analysisBase = 800 * simtime.Nanosecond
	// perProbe is charged per stride probe, i.e. WindowLen·DMax times.
	perProbe = 18 * simtime.Nanosecond
	// perZonePage is charged per dependent-zone page materialised.
	perZonePage = 9 * simtime.Nanosecond
)

// AnalysisCost returns the modelled CPU time of one analysis that produced
// a, under configuration cfg.
func AnalysisCost(cfg Config, a Analysis) simtime.Duration {
	probes := simtime.Duration(cfg.WindowLen * cfg.DMax)
	zone := simtime.Duration(len(a.Zone))
	return analysisBase + probes*perProbe + zone*perZonePage
}
