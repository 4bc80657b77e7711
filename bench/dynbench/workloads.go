// Package dynbench is the repository's end-to-end benchmark: fixed-work,
// closed-loop multi-user runs of the real query path (hive session →
// dynamic job → simulated cluster), timed in host wall-clock and checked
// job by job against ground truth.
//
// A round builds a fresh rig from the same public constructors the
// experiment harness uses, drives the simulator itself until a fixed
// number of jobs has completed, and checks every completed job with an
// oracle. Virtual time is the behaviour contract, not the metric: every
// round of one seed replays the same virtual timeline, so the counts a
// round reports (events, virtual seconds, provider decisions, memo hits)
// are identical across rounds, traced or not, and only the host
// wall-clock differs.
package dynbench

import (
	"fmt"
	"math/rand"
	"strings"

	"dynamicmr/internal/dataset"
)

// Workload names.
const (
	SampleSkew  = "sample-skew"
	MixedReduce = "mixed-reduce"
	AdhocScan   = "adhoc-scan"
	Observed    = "observed"
)

// Workloads lists every workload, in the order a suite run starts with.
// Each stresses different layers (bench/README.md gives the reasons), so
// an optimisation has one that exercises it and one that predicts no
// change.
var Workloads = []string{SampleSkew, MixedReduce, AdhocScan, Observed}

// Default completed jobs per round. Each round is sized to a few host
// seconds on a 2-core machine, so a run repeats it several times.
var defaultJobs = map[string]int{
	SampleSkew:  6000,
	MixedReduce: 600,
	AdhocScan:   150,
	Observed:    4000,
}

// The multi-user shape of §V-D at the quick-suite scale: ten users, each
// on a private 20x LINEITEM copy of 160 partitions × 300k rows.
const (
	users         = 10
	userScale     = 20
	userRowsOver  = userScale * 2_400_000
	sampleK       = 1000
	samplingUsers = 2 // mixed-reduce: users 0-1 sample, the rest scan
	adhocScale    = 5
	// adhoc-scan query shapes: quantity ranges of 2-8 values of 50 and
	// discount caps 0.01-0.05 (2-6 values of 11), so selectivities of
	// 0.7%-9%; and 2000-6000 rows scanned per map.
	adhocMinWidth, adhocMaxWidth = 2, 8
	adhocMinDisc, adhocMaxDisc   = 1, 5
	adhocMinRows, adhocRowsRange = 2000, 4000
)

// query is one statement a user submits, with the LIMIT the oracle
// checks against (-1 when the statement has none).
type query struct {
	sql string
	k   int64
}

// user is one closed-loop participant: it submits queries[i % len], waits
// for the job to finish, and submits the next.
type user struct {
	name    string
	table   int
	queries []query
}

// plan is a workload's generated inputs for one seed: the tables to load,
// the users and their statements, and the round length in completed
// jobs. The program sees only these.
type plan struct {
	workload  string
	multiUser bool
	observed  bool
	tables    []dataset.Spec
	users     []user
	jobs      int
}

// newPlan generates a workload's inputs from the seed. jobs <= 0 takes
// the workload's default round length.
func newPlan(workload string, seed int64, jobs int) (*plan, error) {
	if jobs <= 0 {
		jobs = defaultJobs[workload]
	}
	p := &plan{workload: workload, jobs: jobs}
	switch workload {
	case SampleSkew, Observed:
		p.multiUser = true
		p.observed = workload == Observed
		p.addUserTables(seed, 2, func(int) int64 { return sampleK })
	case MixedReduce:
		p.multiUser = true
		p.addUserTables(seed, 0, func(u int) int64 {
			if u < samplingUsers {
				return sampleK
			}
			return -1
		})
	case AdhocScan:
		p.tables = []dataset.Spec{{
			Name:       "lineitem",
			Scale:      adhocScale,
			Seed:       seed + 17,
			Z:          1,
			Partitions: adhocScale * dataset.PartitionsPerScale,
		}}
		p.users = []user{{name: "analyst", queries: adhocQueries(seed, jobs)}}
	default:
		return nil, fmt.Errorf("dynbench: unknown workload %q (have %s)", workload, strings.Join(Workloads, ", "))
	}
	return p, nil
}

// addUserTables gives every user a private copy of a z-skewed table and
// one repeated query over its planted predicate; limit(u) is user u's
// LIMIT, -1 for a static full-result SELECT.
func (p *plan) addUserTables(seed int64, z float64, limit func(u int) int64) {
	pred, err := dataset.PredicateForZ(z)
	if err != nil {
		panic(err) // z is one of the package's constants
	}
	for u := 0; u < users; u++ {
		name := fmt.Sprintf("lineitem_u%d", u)
		p.tables = append(p.tables, dataset.Spec{
			Name:         name,
			Scale:        userScale,
			Seed:         seed + int64(u+1)*17,
			Z:            z,
			Partitions:   userScale * dataset.PartitionsPerScale,
			RowsOverride: userRowsOver,
		})
		q := query{sql: fmt.Sprintf("SELECT L_ORDERKEY, L_PARTKEY, L_SUPPKEY FROM %s WHERE %s", name, pred), k: limit(u)}
		if q.k >= 0 {
			q.sql += fmt.Sprintf(" LIMIT %d", q.k)
		}
		p.users = append(p.users, user{name: fmt.Sprintf("user%d", u), table: u, queries: []query{q}})
	}
}

// adhocQueries draws n distinct LIMIT queries of the form
// L_QUANTITY BETWEEN lo AND lo+w-1 AND L_DISCOUNT <= 0.0d. No predicate
// is a planted one, so every map scans for real, and no (predicate, k)
// pair repeats, so the memo never hits. k is selectivity × a target row
// count, which fixes each map's scan length (about k / selectivity
// rows). Both the (w, d) shapes and the row targets are stratified —
// every seed draws the same multiset in a different order and pairing —
// so a round's scan work and memo footprint barely depend on the seed,
// while each query keeps its own predicate and k.
func adhocQueries(seed int64, n int) []query {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	type shape struct{ w, d int }
	var shapes []shape
	for w := adhocMinWidth; w <= adhocMaxWidth; w++ {
		for d := adhocMinDisc; d <= adhocMaxDisc; d++ {
			shapes = append(shapes, shape{w, d})
		}
	}
	shapeOrder, rowOrder := rng.Perm(n), rng.Perm(n)
	seen := make(map[string]bool, n)
	out := make([]query, 0, n)
	for i := 0; i < n; i++ {
		sh := shapes[shapeOrder[i]%len(shapes)]
		rows := adhocMinRows + adhocRowsRange*(float64(rowOrder[i])+0.5)/float64(n)
		sel := float64(sh.w) / 50 * float64(sh.d+1) / 11 // quantities 1-50, discounts 0.00-0.10
		k := max(int64(sel*rows+0.5), 5)
		for {
			lo := 1 + rng.Intn(51-sh.w)
			pred := fmt.Sprintf("L_QUANTITY BETWEEN %d AND %d AND L_DISCOUNT <= 0.%02d", lo, lo+sh.w-1, sh.d)
			if key := fmt.Sprintf("%s|%d", pred, k); !seen[key] {
				seen[key] = true
				out = append(out, query{
					sql: fmt.Sprintf("SELECT L_ORDERKEY, L_LINENUMBER, L_QUANTITY, L_DISCOUNT FROM lineitem WHERE %s LIMIT %d", pred, k),
					k:   k,
				})
				break
			}
		}
	}
	return out
}
