package field

// The delta codec: a compact wire encoding of ClusterState. The full
// state ships every battery and every dead sensor on every hop; at scale
// that is the distributed runtime's dominant payload. A delta instead
// names a base boundary both ends can reconstruct and carries only what
// moved since:
//
//   - Base == -1 is the initial build state, derivable from the spec
//     alone (nobody dead, every sensor at Config.BatteryJoules, the
//     mains-powered head at zero). Self-contained — the form adoption
//     payloads use, valid no matter what the receiver currently holds.
//   - Base == e is the committed boundary after epoch e. Usable only
//     when the receiver is known to hold that boundary — the worker →
//     coordinator result path, where the barrier protocol guarantees
//     the coordinator's books sit exactly at the boundary the worker
//     started the epoch from.
//
// Dead sensors are gap-encoded (first index absolute, then ascending
// gaps); batteries ship as parallel (gap-encoded index, value) arrays
// listing only sensors whose level differs from the base. A quiet
// cluster — no deaths, no drain — is a header and two empty lists.
//
// Decoding validates structure before touching any runtime state and
// returns errors wrapping ErrDeltaCorrupt for malformed wire bytes,
// ErrShardMismatch / ErrShardEpoch for well-formed deltas that do not
// fit this field — the same sentinels the full-state paths use.

import (
	"errors"
	"fmt"
	"math"
)

// ErrDeltaCorrupt marks a structurally invalid ClusterDelta: gap lists
// that are not ascending, battery index/value arrays of different
// lengths, out-of-range indices, non-finite levels. Wrapped; match with
// errors.Is.
var ErrDeltaCorrupt = errors.New("cluster delta corrupt")

// DeltaBaseInitial is the Base value naming the initial build state.
const DeltaBaseInitial = -1

// ClusterDelta is the compact encoding of a ClusterState against a base
// boundary. See the package comment above for the wire contract.
type ClusterDelta struct {
	// Cluster, Fingerprint, Epoch mirror ClusterState: which cluster,
	// which deployment, and the boundary the decoded state is at.
	Cluster     int    `json:"cluster"`
	Fingerprint string `json:"fingerprint"`
	Epoch       int    `json:"epoch"`
	// Base is the boundary the delta is relative to: DeltaBaseInitial
	// (-1) for the initial build state, or a committed epoch number.
	Base int `json:"base"`
	// DeadGaps gap-encodes the sensors dead in the encoded state but not
	// in the base: the first entry is an absolute sensor index (>= 1),
	// every later entry a positive gap to the next.
	DeadGaps []int `json:"dead_gaps,omitempty"`
	// BatteryIdx/BatteryVals list the nodes whose battery level differs
	// from the base, as parallel arrays; BatteryIdx is gap-encoded like
	// DeadGaps but from node index 0 (the head).
	BatteryIdx  []int     `json:"battery_idx,omitempty"`
	BatteryVals []float64 `json:"battery_vals,omitempty"`
	// HasBatteries records whether the encoded state carries battery
	// accounting at all — a delta with no battery entries is otherwise
	// ambiguous between "no drain" and "mains-powered field".
	HasBatteries bool `json:"has_batteries,omitempty"`
}

// appendGaps gap-encodes the strictly ascending index list xs onto dst.
func appendGaps(dst, xs []int) []int {
	prev := 0
	for i, x := range xs {
		if i == 0 {
			dst = append(dst, x)
		} else {
			dst = append(dst, x-prev)
		}
		prev = x
	}
	return dst
}

// decodeGaps expands a gap list into absolute indices appended to dst.
// The first index must be at least lo, every gap positive, and no index
// may exceed hi; violations return ErrDeltaCorrupt.
func decodeGaps(dst, gaps []int, lo, hi int) ([]int, error) {
	cur := 0
	for i, g := range gaps {
		if i == 0 {
			if g < lo {
				return nil, fmt.Errorf("field: %w: first index %d below %d", ErrDeltaCorrupt, g, lo)
			}
			cur = g
		} else {
			if g < 1 {
				return nil, fmt.Errorf("field: %w: non-positive gap %d", ErrDeltaCorrupt, g)
			}
			cur += g
		}
		if cur > hi {
			return nil, fmt.Errorf("field: %w: index %d beyond %d", ErrDeltaCorrupt, cur, hi)
		}
		dst = append(dst, cur)
	}
	return dst, nil
}

// validate checks the delta's structure against a cluster of n sensors
// with the given battery mode, without consulting any state. Structural
// violations wrap ErrDeltaCorrupt; a battery-mode disagreement wraps
// ErrShardMismatch.
func (d *ClusterDelta) validate(n int, batteries bool) error {
	if d.Base < DeltaBaseInitial {
		return fmt.Errorf("field: %w: base %d", ErrDeltaCorrupt, d.Base)
	}
	if d.Epoch < 0 || (d.Base >= 0 && d.Epoch < d.Base) {
		return fmt.Errorf("field: %w: epoch %d before base %d", ErrDeltaCorrupt, d.Epoch, d.Base)
	}
	if len(d.BatteryIdx) != len(d.BatteryVals) {
		return fmt.Errorf("field: %w: %d battery indices, %d values", ErrDeltaCorrupt, len(d.BatteryIdx), len(d.BatteryVals))
	}
	if d.HasBatteries != batteries {
		return fmt.Errorf("field: %w: delta for cluster %d disagrees on battery accounting", ErrShardMismatch, d.Cluster)
	}
	if !d.HasBatteries && len(d.BatteryIdx) > 0 {
		return fmt.Errorf("field: %w: battery entries without battery accounting", ErrDeltaCorrupt)
	}
	for _, b := range d.BatteryVals {
		if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
			return fmt.Errorf("field: %w: battery level %v", ErrDeltaCorrupt, b)
		}
	}
	// Dry-run the gap lists so malformed wire bytes surface before any
	// state is touched.
	if _, err := decodeGaps(nil, d.DeadGaps, 1, n); err != nil {
		return err
	}
	if _, err := decodeGaps(nil, d.BatteryIdx, 0, n); err != nil {
		return err
	}
	return nil
}

// EncodeClusterDelta encodes cluster k's current boundary state against
// the initial build state (Base == DeltaBaseInitial) — the
// self-contained form adoption payloads ship, decodable by any process
// holding the same spec regardless of its current state.
func (rt *Runtime) EncodeClusterDelta(k int) (ClusterDelta, error) {
	if !rt.hasCluster(k) {
		return ClusterDelta{}, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
	}
	d := ClusterDelta{
		Cluster:      k,
		Fingerprint:  rt.clusterHash(k),
		Epoch:        rt.epoch,
		Base:         DeltaBaseInitial,
		HasBatteries: rt.batteries != nil,
	}
	if rt.shardEpochs != nil {
		d.Epoch = rt.shardEpochs[k]
	}
	prev := 0
	for v, isDead := range rt.dead[k] {
		if isDead {
			if len(d.DeadGaps) == 0 {
				d.DeadGaps = append(d.DeadGaps, v)
			} else {
				d.DeadGaps = append(d.DeadGaps, v-prev)
			}
			prev = v
		}
	}
	if rt.batteries != nil {
		prev = 0
		for v, b := range rt.batteries[k] {
			if b == rt.initialBattery(v) {
				continue
			}
			if len(d.BatteryIdx) == 0 {
				d.BatteryIdx = append(d.BatteryIdx, v)
			} else {
				d.BatteryIdx = append(d.BatteryIdx, v-prev)
			}
			prev = v
			d.BatteryVals = append(d.BatteryVals, b)
		}
	}
	return d, nil
}

// initialBattery is node v's battery at build time: the configured
// capacity for sensors, zero for the mains-powered head.
func (rt *Runtime) initialBattery(v int) float64 {
	if v == 0 {
		return 0
	}
	return rt.cfg.BatteryJoules
}

// ExpandClusterDelta decodes a Base == DeltaBaseInitial delta into the
// absolute ClusterState it encodes. Only initial-base deltas are
// self-contained enough to expand without a reference boundary;
// incremental deltas are consumed by MergeEpoch against the
// coordinator's books.
func (rt *Runtime) ExpandClusterDelta(d ClusterDelta) (ClusterState, error) {
	k := d.Cluster
	if !rt.hasCluster(k) {
		return ClusterState{}, fmt.Errorf("field: %w: no cluster %d", ErrShardMismatch, k)
	}
	c := rt.clusters[k]
	if err := d.validate(c.Sensors(), rt.batteries != nil); err != nil {
		return ClusterState{}, err
	}
	if d.Base != DeltaBaseInitial {
		return ClusterState{}, fmt.Errorf("field: %w: cluster %d delta has base %d, expansion needs the initial base",
			ErrShardEpoch, k, d.Base)
	}
	st := ClusterState{
		Cluster:     k,
		Fingerprint: d.Fingerprint,
		Epoch:       d.Epoch,
		Dead:        []int{},
	}
	var err error
	st.Dead, err = decodeGaps(st.Dead, d.DeadGaps, 1, c.Sensors())
	if err != nil {
		return ClusterState{}, err
	}
	if d.HasBatteries {
		st.Batteries = make([]float64, c.Sensors()+1)
		for v := range st.Batteries {
			st.Batteries[v] = rt.initialBattery(v)
		}
		idx, err := decodeGaps(nil, d.BatteryIdx, 0, c.Sensors())
		if err != nil {
			return ClusterState{}, err
		}
		for i, v := range idx {
			st.Batteries[v] = d.BatteryVals[i]
		}
	}
	return st, nil
}

// deltaCheaper reports whether the delta beats the full ClusterState on
// the wire for a cluster of n sensors. Battery values dominate both
// encodings, but unevenly: the delta pays an index per entry, while the
// full array ships unchanged entries — which include 1-byte zeros for
// the dead. Half the nodes is a cut with margin to spare on both sides.
// Battery-free deltas always win — they reduce to a header plus the
// dead-gap list.
func (rt *Runtime) deltaCheaper(d *ClusterDelta, n int) bool {
	return !d.HasBatteries || 2*len(d.BatteryIdx) <= n
}

// ExportClusterHandoff returns the cheaper wire encoding of cluster k's
// boundary state for an adoption payload: an initial-base delta when few
// levels moved from build state, the full ClusterState otherwise.
// Exactly one return is non-nil.
func (rt *Runtime) ExportClusterHandoff(k int) (*ClusterDelta, *ClusterState, error) {
	d, err := rt.EncodeClusterDelta(k)
	if err != nil {
		return nil, nil, err
	}
	if rt.deltaCheaper(&d, rt.clusters[k].Sensors()) {
		return &d, nil, nil
	}
	st, err := rt.ExportClusterState(k)
	if err != nil {
		return nil, nil, err
	}
	return nil, &st, nil
}

// AdoptClusterDelta expands an initial-base delta and adopts the state —
// the wire form of AdoptCluster.
func (rt *Runtime) AdoptClusterDelta(d ClusterDelta) error {
	st, err := rt.ExpandClusterDelta(d)
	if err != nil {
		return err
	}
	return rt.AdoptCluster(st)
}

// encodeBoundaryDelta builds the worker → coordinator result delta for
// cluster k's epoch: new deaths (the boundary's Death records, sorted
// ascending into scratch) and battery levels that moved against the
// pre-churn copy in preBatteries. Appends into d's reused slices.
func (rt *Runtime) encodeBoundaryDelta(k, epoch int, deaths []Death, preBatteries []float64, d *ClusterDelta) {
	d.Cluster = k
	d.Fingerprint = rt.clusterHash(k)
	d.Epoch = epoch + 1
	d.Base = epoch
	d.HasBatteries = rt.batteries != nil
	d.DeadGaps = d.DeadGaps[:0]
	d.BatteryIdx = d.BatteryIdx[:0]
	d.BatteryVals = d.BatteryVals[:0]

	victims := rt.scratchVictims[:0]
	for _, death := range deaths {
		victims = append(victims, death.Sensor)
	}
	// Battery deaths arrive ascending with the (at most one) fault death
	// appended; a single insertion pass restores ascending order.
	for i := 1; i < len(victims); i++ {
		v, j := victims[i], i
		for j > 0 && victims[j-1] > v {
			victims[j] = victims[j-1]
			j--
		}
		victims[j] = v
	}
	d.DeadGaps = appendGaps(d.DeadGaps, victims)
	rt.scratchVictims = victims

	if rt.batteries != nil {
		prev := 0
		for v, b := range rt.batteries[k] {
			if b == preBatteries[v] {
				continue
			}
			if len(d.BatteryIdx) == 0 {
				d.BatteryIdx = append(d.BatteryIdx, v)
			} else {
				d.BatteryIdx = append(d.BatteryIdx, v-prev)
			}
			prev = v
			d.BatteryVals = append(d.BatteryVals, b)
		}
	}
}

// importClusterDelta applies cluster k's incremental result delta to
// the coordinator's books during a merge. The books must sit at the
// delta's base boundary — which the barrier protocol guarantees: a
// worker only runs epoch e after the coordinator committed boundary e.
// The delta decodes to the cluster's full boundary state, which goes
// through the same applyClusterState as every other state import.
func (rt *Runtime) importClusterDelta(k int, d ClusterDelta, wantEpoch int) error {
	n := rt.clusters[k].Sensors()
	if err := d.validate(n, rt.batteries != nil); err != nil {
		return err
	}
	if d.Epoch != wantEpoch {
		return fmt.Errorf("field: %w: cluster %d delta is at epoch %d, want %d", ErrShardEpoch, k, d.Epoch, wantEpoch)
	}
	if d.Base != wantEpoch-1 && d.Base != DeltaBaseInitial {
		return fmt.Errorf("field: %w: cluster %d delta has base %d, books are at %d",
			ErrShardEpoch, k, d.Base, wantEpoch-1)
	}
	if err := rt.checkCluster(k, d.Fingerprint); err != nil {
		return err
	}

	dead, err := decodeGaps(rt.scratchReach[:0], d.DeadGaps, 1, n)
	if err != nil {
		return err
	}
	rt.scratchReach = dead
	var batt []float64
	if d.HasBatteries {
		batt = append(rt.scratchBatt[:0], rt.batteries[k]...)
		rt.scratchBatt = batt
		if d.Base == DeltaBaseInitial {
			for v := range batt {
				batt[v] = rt.initialBattery(v)
			}
		}
		cur := 0
		for i, g := range d.BatteryIdx {
			if i == 0 {
				cur = g
			} else {
				cur += g
			}
			batt[cur] = d.BatteryVals[i]
		}
	}
	if err := rt.applyClusterState(k, dead, batt); err != nil {
		return fmt.Errorf("field: %w: result: %v", ErrShardMismatch, err)
	}
	return nil
}
