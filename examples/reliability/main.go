// Reliability: MapReduce's fault model under a dynamic sampling job.
// This example injects map-task failures and a 10x-slower straggler
// node, enables speculative execution, and shows that the sample is
// still exact while the event log reveals the retries and backup
// attempts.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dynamicmr"
	"dynamicmr/internal/cluster"
	"dynamicmr/internal/mapreduce"
)

func main() {
	hw := cluster.PaperConfig()
	// Node 3 is a straggler at 1/10th speed.
	hw.NodeSpeedFactors = make([]float64, cluster.Nodes)
	for i := range hw.NodeSpeedFactors {
		hw.NodeSpeedFactors[i] = 1
	}
	hw.NodeSpeedFactors[3] = 0.1

	rt := mapreduce.DefaultConfig()
	rt.SpeculativeExecution = true
	// CPU-heavy tasks so the straggler visibly straggles.
	rt.Costs.MapCPUPerRecordS = 4e-5
	// 10% of first attempts fail.
	rng := rand.New(rand.NewSource(4))
	rt.FailureInjector = func(j *mapreduce.Job, t *mapreduce.MapTask) bool {
		return t.Attempts == 1 && rng.Float64() < 0.10
	}

	c, err := dynamicmr.NewCluster(
		dynamicmr.WithHardware(hw),
		dynamicmr.WithRuntime(rt),
	)
	if err != nil {
		log.Fatal(err)
	}

	retries, speculative := 0, 0
	c.JobTracker().Subscribe(func(e mapreduce.TaskEvent) {
		switch e.Type {
		case mapreduce.EventMapFailed:
			retries++
			fmt.Printf("  !! map task %d failed on node %d (attempt %d) — will retry\n",
				e.TaskIndex, e.Node, e.Attempt)
		case mapreduce.EventMapStarted:
			if e.Speculative {
				speculative++
				fmt.Printf("  >> speculative backup for straggling task %d on node %d\n",
					e.TaskIndex, e.Node)
			}
		}
	})

	ds, err := c.LoadLineItem("lineitem", dynamicmr.DatasetSpec{
		Scale: 2, Skew: 0, Rows: 1_000_000, Selectivity: 0.005, Seed: 9,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("running sampling query over a cluster with a straggler and flaky tasks...")
	res, err := c.Sample("lineitem", ds.Predicate().String(), 500, "HA", []string{"L_ORDERKEY"})
	if err != nil {
		log.Fatal(err)
	}

	job := res.Job
	fmt.Printf("\nsample size:          %d (exact despite %d failed attempts)\n", len(res.Rows), retries)
	fmt.Printf("response time:        %.2f virtual seconds\n", job.ResponseTime())
	fmt.Printf("failed attempts:      %d (counter: %d)\n", retries, job.Counters.FailedMapAttempts)
	fmt.Printf("speculative launches: %d (counter: %d)\n", speculative, job.Counters.SpeculativeLaunches)
	fmt.Printf("killed attempts:      %d\n", job.Counters.KilledAttempts)
	fmt.Printf("partitions processed: %d of %d (each exactly once)\n",
		job.CompletedMaps(), ds.NumPartitions())
}
