// The failure plane: node crashes with optional evacuation, fail-back of
// interrupted migrations, link failures and recovery. Everything here runs
// as global (merge-phase) events, so node liveness and link state change
// only at barrier-separated instants that every shard count observes
// identically — the property that keeps failure reports byte-identical
// across -shards.
//
// The fail-back protocol follows the openMosix deputy discipline: the
// source node keeps a process's frozen image until the destination
// acknowledges the restore, so a migration interrupted by a crash or a
// dead path never loses the process — it reverts to its source, resuming
// immediately if the source is alive and parking suspended until recovery
// if the source itself crashed. Three mechanisms make that airtight under
// store-and-forward routing, where a payload may be dropped at a failed
// hop or, conversely, survive a transition it was already past:
//
//   - admission: migrate() checks PathUp before committing the payload to
//     the wire and fails the migrant back instantly when the path is dead
//     (stale gossip keeps steering migrants at crashed nodes until their
//     entries age out — those bounce here);
//   - the bounce sweep: at every down-transition the runner fails back
//     every in-flight migrant whose destination crashed or whose remaining
//     path (past its source edge) is no longer verifiable, so any payload
//     the fabric later drops has already been bounced;
//   - sequence guards: every migrate and fail-back bumps the process's
//     migration sequence, so a payload or scheduled unfreeze that outlives
//     its migration arrives stale and lands dead.
package scenario

// crash takes node v down. Its runnable residents either evacuate
// (spec.Evacuate: real migrations shipped as the dying node's last gasp,
// while its edge link is still up) or lose their progress and park
// suspended until recovery. The edge link then drops, in-flight migrants
// headed for v bounce back to their sources, and migrants caught
// mid-restore on v fail back too. Crashing a crashed node is a no-op.
func (c *clusterSim) crash(v int) {
	if c.crashed[v] {
		return
	}
	c.crashed[v] = true
	c.st.Crashes++
	if c.spec.Evacuate {
		c.evacuate(v)
	} else {
		for _, p := range snapshotProcs(c.lv.runnableOn[v]) {
			c.kill(p)
		}
	}
	c.ic.SetLinkState(v, false)
	c.bounceSweep()
	// Migrants caught between payload delivery and unfreeze on v: their
	// restore dies with the node, so they revert to their sources.
	for _, p := range snapshotProcs(c.lv.liveOn[v]) {
		if p.state == procRestoring {
			c.failBack(p)
		}
	}
}

// recover brings node v back: its edge link comes up and every suspended
// resident resumes — crash-killed processes restart from scratch (their
// remaining demand was reset at the crash), failed-back migrants resume
// from their preserved frozen image. Recovering a live node is a no-op.
func (c *clusterSim) recover(v int) {
	if !c.crashed[v] {
		return
	}
	c.crashed[v] = false
	c.ic.SetLinkState(v, true)
	for _, p := range snapshotProcs(c.lv.liveOn[v]) {
		if p.state == procSuspended {
			c.transition(p, procRunning, v)
		}
	}
}

// linkState applies a link churn event; a down-transition re-verifies
// every in-flight migration against the new topology.
func (c *clusterSim) linkState(sel int, up bool) {
	c.ic.SetLinkState(sel, up)
	if !up {
		c.bounceSweep()
	}
}

// evacuate drains node v's runnable residents through real migrations, one
// per process in ascending id order, each to the least-loaded reachable
// live node at that moment (the resident aggregates move at freeze time,
// so successive evacuees spread). A process with no reachable target is
// killed in place instead.
func (c *clusterSim) evacuate(v int) {
	for _, p := range snapshotProcs(c.lv.runnableOn[v]) {
		dst := c.evacTarget(v)
		if dst < 0 {
			c.kill(p)
			continue
		}
		c.st.Evacuations++
		c.migrate(p, v, dst)
	}
}

// evacTarget picks the evacuation destination from v: the least-loaded
// live node the dying node can still reach, lowest index on ties, -1 when
// nothing qualifies.
func (c *clusterSim) evacTarget(v int) int {
	best, bestLoad := -1, 0.0
	for i := 0; i < c.spec.Nodes; i++ {
		if i == v || c.crashed[i] || !c.ic.PathUp(v, i) {
			continue
		}
		load := float64(len(c.lv.liveOn[i])) / c.nodes[i].CPUScale
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// kill makes a crash take p's progress: remaining demand resets to the
// full demand and the process parks suspended on its node until recovery.
// The process itself is never lost — crashes cost work, not workload.
func (c *clusterSim) kill(p *proc) {
	p.remaining = p.t.demand
	c.transition(p, procSuspended, p.node)
}

// bounceSweep fails back every in-flight migrant stranded by a topology
// down-transition: its destination crashed or the remainder of its path —
// past the source edge, which an evacuation payload legitimately leaves
// through just before it drops — can no longer deliver. Any such payload
// the fabric later drops (or, rarely, still delivers over a path that
// healed around the check) was bounced here first and arrives
// sequence-stale. A migrant that already failed back is running or
// suspended, no longer in flight, so later down-transitions cannot bounce
// it again (a migrant restores or fails back exactly once).
func (c *clusterSim) bounceSweep() {
	for _, p := range c.procs {
		if p.state == procInFlight && (c.crashed[p.node] || !c.ic.DestReachable(p.from, p.node)) {
			c.failBack(p)
		}
	}
}

// failBack reverts an interrupted migration: the migrant returns to its
// source instantly — the source kept the frozen image, openMosix deputy
// style, so no return payload crosses the wire — and the freeze the
// process has served so far is accounted. On a live source it resumes at
// once; if the source itself crashed it parks suspended, frozen image
// preserved, until recovery.
func (c *clusterSim) failBack(p *proc) {
	p.seq++
	to := procRunning
	if c.crashed[p.from] {
		to = procSuspended
	}
	c.transition(p, to, p.from)
	c.st.FrozenTotal += c.eng.Now().Sub(p.freezeStart)
	c.st.FailBacks++
}

// snapshotProcs copies a live-view resident list before iterating with
// transitions, which edit the lists in place.
func snapshotProcs(list []*proc) []*proc {
	return append([]*proc(nil), list...)
}
