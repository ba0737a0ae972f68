package field

// Shard mode: the distributed half of the field runtime. A worker
// process builds the same (field, Config) pair as the coordinator —
// specs are pure data, the deployment is validated by fingerprint — and
// then advances only the clusters it owns, one epoch at a time, through
// RunShardEpoch. Because an epoch is a closed unit and every churn draw
// is a pure hash of (seed, epoch, cluster), a cluster's trajectory is
// independent of which process runs it. A worker runs each cluster
// through the same step RunEpoch's fan-out uses (stepCluster, then
// settle); the coordinator feeds the per-cluster results to the same
// fold RunEpoch ends in (MergeEpoch), so the distributed Summary and
// Snapshot are byte-identical to a single-process run at any worker
// count.
//
// The one piece of shared state clusters do not own is the radio
// environment: the shadowing table lives on the propagation model all of
// a process's clusters share. Shard mode therefore runs its clusters
// sequentially (the parallelism is the workers) and, before a cluster
// runs, installs the table for its epoch's revision and refreshes the
// cluster if it is behind (refreshCluster). The table is a pure function
// of (churn seed, revision), so flipping between revisions is lossless.
//
// Handoff is a per-cluster miniature of Resume: ClusterState carries who
// is dead and the remaining batteries; AdoptCluster applies them through
// the same applyClusterState Resume uses and refreshes the cluster at its
// epoch's shadow revision. The adopting worker then continues the
// cluster's trajectory exactly where the lost worker left it.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/exp"
)

// Sentinel errors for the shard protocol. Wrapped, match with errors.Is.
var (
	// ErrShardEpoch marks an epoch-ordering violation: a cluster asked to
	// run or adopt an epoch it cannot reach from its current one.
	ErrShardEpoch = errors.New("shard epoch out of step")
	// ErrShardMismatch marks a handoff or merge payload that does not fit
	// the runtime's field: unknown cluster, wrong per-cluster fingerprint,
	// battery-mode disagreement, or out-of-range sensors.
	ErrShardMismatch = errors.New("shard state does not match cluster")
)

// ClusterState is one cluster's epoch-boundary checkpoint — the handoff
// unit of the distributed runtime, and a per-cluster miniature of
// Snapshot: together with the (field, Config) pair, it is sufficient for
// any process to reconstruct the cluster and continue its trajectory.
type ClusterState struct {
	// Cluster is the field cluster index.
	Cluster int `json:"cluster"`
	// Fingerprint hashes the cluster's geometry
	// (topo.Field.ClusterFingerprint, "%016x"); adoption and merge reject
	// state from a different deployment.
	Fingerprint string `json:"fingerprint"`
	// Epoch is the number of epochs this cluster has completed.
	Epoch int `json:"epoch"`
	// Dead lists the cluster's dead sensors, ascending.
	Dead []int `json:"dead"`
	// Batteries holds remaining joules per node (index 0 is the head),
	// nil when depletion is disabled.
	Batteries []float64 `json:"batteries,omitempty"`
}

// ClusterResult is one cluster's product for one epoch: the report row,
// the churn that closed the epoch, and the boundary state afterward.
// RunEpoch and MergeEpoch fold exactly these.
type ClusterResult struct {
	// Epoch is the epoch this result is for.
	Epoch int `json:"epoch"`
	// Row is the compact per-epoch report row.
	Row ClusterEpoch `json:"row"`
	// Deaths at this epoch's boundary, battery deaths (ascending by
	// sensor) before the injected fault — the order the single-process
	// boundary records them in.
	Deaths []Death `json:"deaths,omitempty"`
	// Stranded counts the cluster's powered sensors without a relaying
	// path after the boundary.
	Stranded int `json:"stranded"`
	// Changed reports whether the boundary altered the cluster's
	// connectivity (it will re-plan for the next epoch).
	Changed bool `json:"changed"`
	// Lifetime is the cluster's steady-state first-death estimate, only
	// populated (HasLifetime) on epoch 0 of a battery-backed run for
	// clusters with at least one live sensor.
	Lifetime    time.Duration `json:"lifetime_ns,omitempty"`
	HasLifetime bool          `json:"has_lifetime,omitempty"`
	// Exactly one of State and Delta carries the cluster's boundary
	// checkpoint after the epoch. Workers ship Delta — the compact
	// encoding against the boundary the epoch started from (delta.go);
	// State remains accepted for full checkpoints and older payloads.
	State *ClusterState `json:"state,omitempty"`
	Delta *ClusterDelta `json:"delta,omitempty"`
}

// FieldHash is the deployment fingerprint ("%016x" of
// topo.Field.Fingerprint) — what snapshots and worker sessions validate
// against.
func (rt *Runtime) FieldHash() string {
	return fmt.Sprintf("%016x", rt.f.Fingerprint())
}

// ClusterIndexes returns the indices of the field's non-empty clusters,
// ascending — the unit of distributed assignment and of MergeEpoch's
// coverage check.
func (rt *Runtime) ClusterIndexes() []int {
	ks := make([]int, 0, rt.sum.Clusters)
	for k, c := range rt.clusters {
		if c != nil {
			ks = append(ks, k)
		}
	}
	return ks
}

// clusterHash is cluster k's geometry fingerprint as ClusterState and
// ClusterDelta carry it (topo.Field.ClusterFingerprint, "%016x").
func (rt *Runtime) clusterHash(k int) string {
	return fmt.Sprintf("%016x", rt.f.ClusterFingerprint(k))
}

// hasCluster reports whether k names one of the field's non-empty
// clusters.
func (rt *Runtime) hasCluster(k int) bool {
	return k >= 0 && k < len(rt.clusters) && rt.clusters[k] != nil
}

// checkCluster validates a payload for cluster k carrying fingerprint fp:
// the cluster must exist here and have that geometry.
func (rt *Runtime) checkCluster(k int, fp string) error {
	if !rt.hasCluster(k) {
		return fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
	}
	if want := rt.clusterHash(k); fp != want {
		return fmt.Errorf("field: %w: cluster %d is %s here, payload carries %s", ErrShardMismatch, k, want, fp)
	}
	return nil
}

// initShard arms shard mode. Shard bookkeeping starts every cluster at
// epoch 0, so the runtime must be fresh — a worker always builds from
// the spec and receives later state through AdoptCluster.
func (rt *Runtime) initShard() error {
	if rt.shardEpochs != nil {
		return nil
	}
	if rt.epoch != 0 {
		return fmt.Errorf("field: shard mode requires a fresh runtime, this one is at epoch %d", rt.epoch)
	}
	rt.shardEpochs = make([]int, len(rt.clusters))
	rt.shardResults = make([]*ClusterResult, len(rt.clusters))
	return nil
}

// RunShardEpoch advances the given clusters (this worker's shard)
// through one epoch: each runs its duty cycles and its share of the
// churn boundary, and returns its report row, deaths and boundary state.
// Clusters run sequentially in ascending index order — the distributed
// runtime's parallelism is across workers, and sequential execution lets
// the shared shadowing table serve clusters at different revisions.
//
// Each cluster must be exactly at epoch (completed epochs == epoch);
// a cluster already at epoch+1 returns its cached result instead, so a
// coordinator that lost a response can safely re-ask. Anything else is
// ErrShardEpoch. Errors leave completed clusters advanced — re-asking
// with the same epoch is always safe.
func (rt *Runtime) RunShardEpoch(o exp.Options, epoch int, ks []int) ([]ClusterResult, error) {
	if err := rt.initShard(); err != nil {
		return nil, err
	}
	if epoch < 0 {
		return nil, fmt.Errorf("field: %w: negative epoch %d", ErrShardEpoch, epoch)
	}
	sorted := append(rt.scratchSorted[:0], ks...)
	sort.Ints(sorted)
	rt.scratchSorted = sorted
	out := make([]ClusterResult, 0, len(sorted))
	for i, k := range sorted {
		if i > 0 && sorted[i-1] == k {
			return nil, fmt.Errorf("field: %w: cluster %d listed twice in shard", ErrShardMismatch, k)
		}
		if !rt.hasCluster(k) {
			return nil, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
		}
		switch {
		case rt.shardEpochs[k] == epoch:
			res, err := rt.runShardCluster(o, epoch, k)
			if err != nil {
				return nil, err
			}
			out = append(out, *res)
		case rt.shardEpochs[k] == epoch+1 && rt.shardResults[k] != nil && rt.shardResults[k].Epoch == epoch:
			out = append(out, *rt.shardResults[k])
		default:
			return nil, fmt.Errorf("field: %w: cluster %d has completed %d epochs, asked to run epoch %d",
				ErrShardEpoch, k, rt.shardEpochs[k], epoch)
		}
	}
	return out, nil
}

// runShardCluster runs cluster k's epoch step under its revision's
// shadowing table, settles its boundary, attaches the boundary
// checkpoint and records the result for idempotent re-query.
func (rt *Runtime) runShardCluster(o exp.Options, epoch, k int) (*ClusterResult, error) {
	rt.refreshCluster(k, rt.revForEpoch(epoch))
	// Copy the pre-boundary batteries so the delta ships only the levels
	// the boundary moved.
	var preBatt []float64
	if rt.batteries != nil {
		preBatt = append(rt.scratchBatt[:0], rt.batteries[k]...)
		rt.scratchBatt = preBatt
	}
	out := &rt.outs[k]
	rt.stepCluster(o, epoch, k, out)
	if out.err != nil {
		return nil, out.err
	}
	rt.settle(epoch, k, &out.res)
	res := out.res
	rt.shardEpochs[k] = epoch + 1

	// The boundary checkpoint ships as a delta against the boundary the
	// epoch started from — the coordinator's books are guaranteed to sit
	// there (it only issues epoch e after committing boundary e). The
	// delta is freshly allocated: it lives in shardResults for idempotent
	// re-query, so it cannot share scratch across clusters. An active
	// battery cluster can drain nearly every node in one epoch, making
	// the delta's (index, value) pairs pricier than the plain battery
	// array — ship whichever encoding is smaller on the wire.
	d := &ClusterDelta{}
	rt.encodeBoundaryDelta(k, epoch, res.Deaths, preBatt, d)
	if rt.deltaCheaper(d, rt.clusters[k].Sensors()) {
		res.Delta = d
	} else {
		st, err := rt.ExportClusterState(k)
		if err != nil {
			return nil, err
		}
		res.State = &st
	}
	rt.shardResults[k] = &res
	return &res, nil
}

// ExportClusterState captures cluster k's current epoch-boundary state:
// the coordinator exports it from its merged runtime to seed an
// adoption; a worker exports it to answer a checkpoint fetch.
func (rt *Runtime) ExportClusterState(k int) (ClusterState, error) {
	if !rt.hasCluster(k) {
		return ClusterState{}, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
	}
	st := ClusterState{
		Cluster:     k,
		Fingerprint: rt.clusterHash(k),
		Epoch:       rt.epoch,
		Dead:        []int{},
	}
	if rt.shardEpochs != nil {
		st.Epoch = rt.shardEpochs[k]
	}
	for v, isDead := range rt.dead[k] {
		if isDead {
			st.Dead = append(st.Dead, v)
		}
	}
	if rt.batteries != nil {
		st.Batteries = append([]float64(nil), rt.batteries[k]...)
	}
	return st, nil
}

// AdoptCluster installs a handed-off cluster state on this worker: the
// per-cluster miniature of Resume. The cluster's fingerprint must match
// this field's, and its epoch may only move forward; adopting the state
// a cluster is already at is a no-op (determinism makes the states
// equal), so re-sends are safe.
func (rt *Runtime) AdoptCluster(st ClusterState) error {
	if err := rt.initShard(); err != nil {
		return err
	}
	k := st.Cluster
	if err := rt.checkCluster(k, st.Fingerprint); err != nil {
		return err
	}
	if st.Epoch < rt.shardEpochs[k] {
		return fmt.Errorf("field: %w: cluster %d has completed %d epochs, cannot rewind to %d",
			ErrShardEpoch, k, rt.shardEpochs[k], st.Epoch)
	}
	if err := rt.applyClusterState(k, st.Dead, st.Batteries); err != nil {
		return fmt.Errorf("field: %w: handoff: %v", ErrShardMismatch, err)
	}
	rt.shardEpochs[k] = st.Epoch
	rt.shardResults[k] = nil
	rt.refreshCluster(k, rt.revForEpoch(st.Epoch))
	return nil
}

// MergeEpoch folds one epoch's per-cluster results into this runtime —
// the coordinator's half of the barrier. The runtime must be the
// whole-field one (not shard mode) sitting at the epoch the results are
// for, and the results must cover exactly the field's non-empty
// clusters. After validating every result, the merge imports each
// cluster's boundary state into the coordinator's dead/battery books and
// hands the results, in cluster order, to the fold RunEpoch ends in:
// after a merge, Summary() and Snapshot() are byte-identical to the
// single-process run's.
func (rt *Runtime) MergeEpoch(results []ClusterResult) (*EpochReport, error) {
	if rt.shardEpochs != nil {
		return nil, fmt.Errorf("field: MergeEpoch on a shard-mode runtime")
	}
	epoch := rt.epoch
	if rt.scratchByK == nil {
		rt.scratchByK = make([]*ClusterResult, len(rt.clusters))
	}
	byK := rt.scratchByK
	clear(byK)
	for i := range results {
		r := &results[i]
		k := r.Row.Cluster
		switch {
		case !rt.hasCluster(k):
			return nil, fmt.Errorf("field: %w: result for unknown cluster %d", ErrShardMismatch, k)
		case byK[k] != nil:
			return nil, fmt.Errorf("field: %w: two results for cluster %d", ErrShardMismatch, k)
		case r.Epoch != epoch:
			return nil, fmt.Errorf("field: %w: cluster %d result is for epoch %d, merging epoch %d",
				ErrShardEpoch, k, r.Epoch, epoch)
		case r.Row.Channel != rt.colors[k]:
			return nil, fmt.Errorf("field: %w: cluster %d ran on channel %d, coloring says %d",
				ErrShardMismatch, k, r.Row.Channel, rt.colors[k])
		case r.Delta == nil && r.State == nil:
			return nil, fmt.Errorf("field: %w: cluster %d result carries no boundary state", ErrShardMismatch, k)
		case r.Delta != nil && r.Delta.Cluster != k, r.Delta == nil && r.State.Cluster != k:
			return nil, fmt.Errorf("field: %w: cluster %d result carries another cluster's boundary state", ErrShardMismatch, k)
		}
		for _, d := range r.Deaths {
			if d.Epoch != epoch || d.Cluster != k {
				return nil, fmt.Errorf("field: %w: death of sensor %d attributed to cluster %d epoch %d in cluster %d's epoch-%d result",
					ErrShardMismatch, d.Sensor, d.Cluster, d.Epoch, k, epoch)
			}
		}
		byK[k] = r
	}
	ordered := rt.scratchResults[:0]
	for k, c := range rt.clusters {
		if c == nil {
			continue
		}
		if byK[k] == nil {
			return nil, fmt.Errorf("field: %w: no result for cluster %d", ErrShardMismatch, k)
		}
		ordered = append(ordered, byK[k])
	}
	rt.scratchResults = ordered

	// Install the boundary states so the coordinator's own dead/battery
	// books track the fleet — that is what makes its Snapshot the
	// resume point, and the source of adoption payloads.
	for _, r := range ordered {
		var err error
		if r.Delta != nil {
			err = rt.importClusterDelta(r.Row.Cluster, *r.Delta, epoch+1)
		} else {
			err = rt.importClusterState(r.Row.Cluster, *r.State, epoch+1)
		}
		if err != nil {
			return nil, err
		}
	}
	return rt.fold(ordered, nil, plannerStats{})
}

// importClusterState applies cluster k's post-epoch checkpoint to the
// coordinator's books during a merge.
func (rt *Runtime) importClusterState(k int, st ClusterState, wantEpoch int) error {
	if st.Epoch != wantEpoch {
		return fmt.Errorf("field: %w: cluster %d state is at epoch %d, want %d", ErrShardEpoch, k, st.Epoch, wantEpoch)
	}
	if err := rt.checkCluster(k, st.Fingerprint); err != nil {
		return err
	}
	if err := rt.applyClusterState(k, st.Dead, st.Batteries); err != nil {
		return fmt.Errorf("field: %w: result: %v", ErrShardMismatch, err)
	}
	return nil
}
