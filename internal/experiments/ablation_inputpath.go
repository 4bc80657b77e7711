package experiments

import (
	"fmt"

	"dynamicmr/internal/core"
	"dynamicmr/internal/mapreduce"
)

// AblationInputPath sweeps the map-task input path — full scan vs
// zone-map skip-scan vs clustered-index reads with informed grab
// ordering — across the three skew levels for the dynamic policies.
// The full rows are the seed-identical baseline (every block read, so
// blocks skipped is always zero); skip charges simulated I/O only for
// the zone-map-promising sub-blocks of each grabbed split; index
// additionally probes the per-partition clustered index, reading
// matches alone, and grabs statistically promising splits first. The
// interesting regime is z >= 1, where matches concentrate in few
// partitions and most zones admit none: skip-scan leaves those blocks
// unread and response times drop accordingly. The non-full rows are
// NOT expected to match full — skip and index change simulated costs
// and the selectivity the providers observe, which is exactly the
// policy-game shift the flag opts into.
// Cells run sequentially with a private runtime per mode, so every
// column is deterministic and the full rows can be pinned golden.
func AblationInputPath(opt Options) (*Table, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	reg := core.DefaultRegistry()
	var pols []string
	for _, p := range opt.Policies {
		switch p {
		case core.PolicyHA, core.PolicyMA, core.PolicyLA, core.PolicyC:
			pols = append(pols, p)
		}
	}
	if len(pols) == 0 {
		return nil, fmt.Errorf("experiments: input-path ablation needs at least one of HA, MA, LA or C")
	}
	t := &Table{
		Title:   "Ablation: input path (full scan vs skip-scan vs indexed grab, single user)",
		Columns: []string{"Path", "Z", "Policy", "Response (s)", "Partitions", "Blocks read", "Blocks skipped"},
		Notes: []string{
			"full reads every block (seed-identical baseline); skip reads only zone-map-promising blocks; index probes the clustered index and grabs match-rich splits first",
			"at z >= 1 matches concentrate in few partitions, so skip/index leave most blocks unread and response drops",
		},
	}
	// One dataset build per skew level, shared across the three modes:
	// the input path changes what a map task reads, never the data.
	cache := newDSCache()
	for _, mode := range []string{mapreduce.InputPathFull, mapreduce.InputPathSkip, mapreduce.InputPathIndex} {
		mopt := opt
		mopt.InputPath = mode
		mopt.Parallelism = 1 // sequential cells keep the counters schedule-deterministic
		sh := mopt.newSweepShared()
		sh.cache = cache
		for _, z := range []float64{0, 1, 2} {
			for _, name := range pols {
				pol, err := reg.Get(name)
				if err != nil {
					sh.close()
					return nil, err
				}
				// The single-user job is submitted below the Hive session,
				// so the mode must ride the job conf explicitly for the
				// provider to see it (informed ordering keys off
				// ConfInputPath = index).
				j := mopt.ablationJob(z, pol)
				j.conf = mapreduce.NewJobConf()
				j.conf.Set(mapreduce.ConfInputPath, mode)
				_, client, err := mopt.singleUser(sh, j)
				if err != nil {
					sh.close()
					return nil, fmt.Errorf("ablation input path (%s, z=%g, %s): %w", mode, z, name, err)
				}
				job := client.Job()
				t.AddRow(mode, z, name, job.ResponseTime(), job.CompletedMaps(),
					job.Counters.ScanBlocksRead, job.Counters.ScanBlocksSkipped)
			}
		}
		sh.close()
	}
	return t, nil
}
