// Envmonitor models the paper's motivating application — ground
// temperature monitoring: a field covered by several heterogeneous
// clusters, each gathering low-rate sensor readings for months on one
// battery. It deploys a multi-cluster field with Voronoi cluster forming
// (Section V-A), assigns inter-cluster radio channels by coloring
// (Section V-G), simulates every cluster's polling with sector
// partitioning, and reports field-wide energy figures. A second phase
// runs the sharded field runtime with fault churn to show the field
// surviving sensor deaths across epochs.
//
//	go run ./examples/envmonitor
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/field"
	"repro/internal/topo"
)

func main() {
	log.SetFlags(0)

	const (
		heads     = 6
		sensors   = 420 // dense enough for multi-hop chains to the heads
		fieldSide = 400.0
		rateBps   = 10 // a temperature reading is tiny and rare
		batteryJ  = 2000.0
	)

	fmt.Printf("== Ground temperature monitoring: %d clusters, %d sensors over %.0fx%.0f m ==\n\n",
		heads, sensors, fieldSide, fieldSide)

	// Cluster forming: heads compute Voronoi cells (Section V-A).
	fld := topo.BuildField(7, fieldSide, heads, sensors)
	sizes := make([]int, heads)
	for _, cl := range fld.Assign {
		sizes[cl]++
	}
	fmt.Printf("Voronoi cluster sizes: %v\n", sizes)

	params := cluster.DefaultParams()
	params.RateBps = rateBps
	params.Cycle = 30 * time.Second // readings are infrequent
	params.UseSectors = true
	params.EarlySleep = true

	cfg := topo.DefaultConfig(0, 0) // radio/range parameters for every cluster
	cfg.SensorRange = 40            // Voronoi cells are wide; reach accordingly
	cfg.HeadRange = 300
	rt, err := field.New(fld, field.Config{
		Topo:              cfg,
		Params:            params,
		InterferenceRange: 80,
		BatteryJoules:     batteryJ,
		EpochCycles:       4,
	})
	if err != nil {
		log.Fatal(err)
	}
	ep, err := rt.RunEpoch(exp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rep := ep.Report

	fmt.Printf("radio channels used: %d (paper guarantees <= 6 for the planar-like cluster graph)\n\n",
		rt.Channels())
	for i, row := range rep.Clusters {
		s := ep.Summaries[row.Cluster]
		fmt.Printf("cluster %d (channel %d): duty %8v/cycle, active %5.2f%%, delivered %3.0f%%, retries %d\n",
			i, row.Channel, s.MeanDuty.Round(time.Millisecond), s.MeanActive*100,
			s.DeliveredFraction()*100, s.Retries)
	}
	if rep.Stranded > 0 {
		fmt.Printf("\nstranded sensors (no multi-hop path to their head): %d\n", rep.Stranded)
	}
	fmt.Printf("\nfield lifetime (first sensor death anywhere): %v\n", rt.Summary().Lifetime.Round(time.Hour))
	fmt.Printf("minimum field cycle under token rotation: %v; under %d-channel coloring: %v\n",
		rep.TokenCycle.Round(time.Millisecond), rt.Channels(),
		rep.ColoredCycle.Round(time.Millisecond))
	fmt.Printf("the %v cycle leaves %.1fx headroom on the busiest channel\n",
		params.Cycle, float64(params.Cycle)/float64(rep.ColoredCycle))

	// Phase two: months of operation compressed into churned epochs.
	// Every epoch one in three clusters loses a sensor to hardware
	// failure; the head re-plans around the gap and the field keeps
	// delivering for the survivors.
	fmt.Printf("\n== Field runtime: 8 epochs with relay-fault churn ==\n\n")
	rt, err = field.New(fld, field.Config{
		Topo:              cfg,
		Params:            params,
		InterferenceRange: 80,
		BatteryJoules:     batteryJ,
		EpochCycles:       2,
		Epochs:            8,
		Churn:             field.Churn{FaultRate: 0.33},
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := rt.Run(exp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range run.Reports {
		live := 0
		for _, c := range rep.Clusters {
			live += c.Live
		}
		fmt.Printf("epoch %d: %d clusters, %4d live sensors, colored cycle %8v, deaths %d, stranded %d\n",
			rep.Epoch, len(rep.Clusters), live, rep.ColoredCycle.Round(time.Millisecond),
			len(rep.Deaths), rep.Stranded)
	}
	fmt.Printf("\ndelivered %.1f%% of offered packets across the run; %d deaths, %d re-plans\n",
		run.DeliveredFraction()*100, len(run.Deaths), run.ReplansTotal)
}
