package field

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/radio"
)

// The churn engine: every draw is a pure hash of (churn seed, epoch,
// cluster, salt), so the fault sequence is a function of the
// configuration alone — independent of worker count, wall clock and
// iteration order — and a resumed runtime replays the exact same faults.
// Battery kills and injected faults touch one cluster each and run in
// stepCluster; the shadowing shift touches the shared propagation model
// and runs in settle, after the barrier.

// Salt constants keep the three draw families independent streams.
const (
	saltFault  = 0xfa017
	saltVictim = 0x71c71
	saltShadow = 0x5ad00
)

// drainCluster integrates cluster k's epoch energy draw — each sensor's
// mean cycle profile from s through the energy model, times the epoch's
// cycles — into its batteries and kills the sensors whose batteries
// empty, as one batch (one connectivity rebuild), recording their deaths
// ascending by sensor. Stranded-but-powered sensors drain sleep energy
// like everyone else; the dead are left alone. Returns whether anyone
// died.
func (rt *Runtime) drainCluster(epoch, k int, s *cluster.Summary, out *clusterOut) bool {
	n := rt.clusters[k].Sensors()
	cycles := float64(rt.cfg.epochCycles())
	m := rt.em
	victims := out.victims[:0]
	for v := 1; v <= n; v++ {
		if rt.dead[k][v] {
			continue
		}
		p := s.MeanProfiles[v]
		perCycle := m.Energy(energy.Tx, p.InTx) + m.Energy(energy.Rx, p.InRx) +
			m.Energy(energy.Idle, p.InIdle) + m.Energy(energy.Sleep, p.SleepTime())
		rt.batteries[k][v] -= perCycle * cycles
		if rt.batteries[k][v] <= 0 {
			rt.batteries[k][v] = 0
			victims = append(victims, v)
			out.res.Deaths = append(out.res.Deaths, Death{
				Epoch: epoch, Cluster: k, Sensor: v, Cause: "battery",
			})
		}
	}
	out.victims = victims
	rt.killBatch(k, victims)
	return len(victims) > 0
}

// faultCluster draws cluster k's injected-fault coin for the boundary
// after epoch and, on a hit, kills one uniformly drawn reachable sensor
// (the draw sees the graph after this boundary's battery kills). Returns
// whether a sensor died. The draw is a pure hash of (churn seed, epoch,
// k), so any process that owns cluster k at this boundary kills the same
// victim.
func (rt *Runtime) faultCluster(epoch, k int, out *clusterOut) bool {
	seed := uint64(rt.cfg.churnSeed())
	draw := hashMix(seed, uint64(epoch), uint64(k), saltFault)
	if hashUnit(draw) >= rt.cfg.Churn.FaultRate {
		return false
	}
	alive := rt.clusters[k].ReachableInto(out.reach)
	out.reach = alive
	if len(alive) == 0 {
		return false
	}
	pick := hashMix(seed, uint64(epoch), uint64(k), saltVictim)
	v := alive[int(pick%uint64(len(alive)))]
	rt.killBatch(k, []int{v})
	out.res.Deaths = append(out.res.Deaths, Death{
		Epoch: epoch, Cluster: k, Sensor: v, Cause: "fault",
	})
	return true
}

// killBatch removes sensors of cluster k from the network — transmit
// power to zero, one connectivity and level rebuild for the whole batch
// (topo.Cluster.MarkFailedBatch). An empty batch is a no-op.
func (rt *Runtime) killBatch(k int, victims []int) {
	if len(victims) == 0 {
		return
	}
	for _, v := range victims {
		rt.dead[k][v] = true
	}
	rt.clusters[k].MarkFailedBatch(victims)
}

// applyClusterState sets cluster k's boundary state to the given dead
// set and batteries (nil when depletion is disabled): sensors listed and
// not yet dead die as one batch, and the batteries are copied in. Resume,
// AdoptCluster and the merge's state imports all land here. Everything is
// validated before anything changes — battery mode and length against
// the runtime, dead sensors against the cluster's range; the error names
// the mismatch and callers wrap it in their protocol's sentinel.
func (rt *Runtime) applyClusterState(k int, dead []int, batteries []float64) error {
	c := rt.clusters[k]
	var have []float64
	if rt.batteries != nil {
		have = rt.batteries[k]
	}
	if (batteries == nil) != (have == nil) {
		return fmt.Errorf("cluster %d disagrees on battery accounting", k)
	}
	if len(batteries) != len(have) {
		return fmt.Errorf("cluster %d batteries: %d nodes, want %d", k, len(batteries), len(have))
	}
	victims := rt.scratchVictims[:0]
	for _, v := range dead {
		if c == nil || v < 1 || v > c.Sensors() {
			return fmt.Errorf("sensor %d of cluster %d out of range", v, k)
		}
		if !rt.dead[k][v] {
			victims = append(victims, v)
		}
	}
	rt.scratchVictims = victims
	rt.killBatch(k, victims)
	copy(have, batteries)
	return nil
}

// shadowEnabled reports whether shadow churn is configured and the
// propagation model exposes the shadowing hook.
func (rt *Runtime) shadowEnabled() bool {
	ch := rt.cfg.Churn
	if ch.ShadowSigmaDB <= 0 || ch.ShadowEvery <= 0 {
		return false
	}
	_, ok := rt.cfg.Topo.Prop.(*radio.LogDistance)
	return ok
}

// shadowDue reports whether the boundary after the given epoch shifts
// the shadowing environment.
func (rt *Runtime) shadowDue(epoch int) bool {
	return rt.shadowEnabled() && (epoch+1)%rt.cfg.Churn.ShadowEvery == 0
}

// revForEpoch is the shadowing-table revision in force while the given
// epoch runs: the number of shift boundaries before it. It is the one
// source of the revision — the single-process runtime, every distributed
// worker and every snapshot derive it from the epoch number alone, so
// the radio environment is never part of any handoff payload.
func (rt *Runtime) revForEpoch(epoch int) int {
	if !rt.shadowEnabled() {
		return 0
	}
	return epoch / rt.cfg.Churn.ShadowEvery
}

// installTable points the shared LogDistance model at the shadowing
// table for revision rev (revision 0 is the pristine, table-free medium)
// unless it is installed already, without refreshing any cluster. The
// table is a pure function of (churn seed, revision, sigma), so installs
// commute: any process can flip between revisions in any order and land
// on identical link powers.
func (rt *Runtime) installTable(rev int) {
	if rt.table == rev {
		return
	}
	rt.table = rev
	ld, ok := rt.cfg.Topo.Prop.(*radio.LogDistance)
	if !ok {
		return
	}
	if rev == 0 {
		ld.ShadowDB = nil
		return
	}
	seed := int64(hashMix(uint64(rt.cfg.churnSeed()), uint64(rev), saltShadow))
	ld.ShadowDB = radio.HashShadow(seed, rt.cfg.Churn.ShadowSigmaDB)
}

// refreshCluster installs revision rev's table and brings cluster k's
// materialized links and connectivity to it, if they are not there
// already. Refreshes re-derive the links from the installed table, so
// the path there does not matter: a cluster that skipped revisions
// catches up with one. Cost is O(materialized links) — the sparse medium
// re-derives only the link powers it stores. Returns whether the
// cluster's connectivity changed.
func (rt *Runtime) refreshCluster(k, rev int) bool {
	rt.installTable(rev)
	if rt.revs[k] == rev {
		return false
	}
	c := rt.clusters[k]
	prev := c.ConnectivityRev()
	c.RefreshConnectivity()
	rt.revs[k] = rev
	return c.ConnectivityRev() != prev
}

// strandedIn counts cluster k's powered sensors without a relaying path
// to their head.
func (rt *Runtime) strandedIn(k int) int {
	c := rt.clusters[k]
	stranded := 0
	for v := 1; v <= c.Sensors(); v++ {
		if !rt.dead[k][v] && c.Level[v] <= 0 {
			stranded++
		}
	}
	return stranded
}
