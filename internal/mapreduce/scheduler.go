package mapreduce

import (
	"cmp"
	"slices"
)

// TaskScheduler assigns pending tasks to a tracker's free slots at each
// scheduling opportunity (heartbeat or task completion). Implementations
// must only return tasks that are currently pending.
type TaskScheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// AssignMaps picks up to max map tasks to launch on tt.
	AssignMaps(jt *JobTracker, tt *TaskTracker, max int) []*MapTask
	// AssignReduces picks up to max reduce tasks to launch on tt.
	AssignReduces(jt *JobTracker, tt *TaskTracker, max int) []*ReduceTask
}

// FIFOScheduler is Hadoop's default: jobs served strictly in submission
// order; within a job, node-local splits are preferred but a non-local
// split is launched immediately when no local one exists (no delay —
// which is why the paper measures only 57% locality under the default
// scheduler).
type FIFOScheduler struct{}

// NewFIFOScheduler returns the default scheduler.
func NewFIFOScheduler() *FIFOScheduler { return &FIFOScheduler{} }

// Name implements TaskScheduler.
func (s *FIFOScheduler) Name() string { return "fifo" }

// AssignMaps implements TaskScheduler. The result is the tracker's
// buffer, valid until its next AssignMaps call.
func (s *FIFOScheduler) AssignMaps(jt *JobTracker, tt *TaskTracker, max int) []*MapTask {
	out := jt.picks[:0]
	for len(out) < max {
		var picked *MapTask
		for _, j := range jt.jobs {
			if j.Done() || j.unpicked() == 0 {
				continue
			}
			if picked = j.localPendingTask(tt.node.ID); picked == nil {
				picked = j.nextPending()
			}
			break
		}
		if picked == nil {
			break
		}
		// Callers launch in order, so a pick must not be picked twice:
		// it stays queued, marked, until the caller takes it.
		picked.pick()
		out = append(out, picked)
	}
	unpick(out)
	jt.picks = out
	return out
}

// AssignReduces implements TaskScheduler with assignReduces.
func (s *FIFOScheduler) AssignReduces(jt *JobTracker, tt *TaskTracker, max int) []*ReduceTask {
	return assignReduces(jt, max)
}

// assignReduces is both built-in schedulers' AssignReduces: reduces
// have no locality, so it returns up to max pending reduces of the jobs
// in their reduce phase, in submission order. The result is the
// tracker's buffer, valid until the next call.
func assignReduces(jt *JobTracker, max int) []*ReduceTask {
	out := jt.reducePicks[:0]
	for _, j := range jt.jobs {
		if len(out) == max {
			break
		}
		if j.state == StateReducePhase {
			out = append(out, j.pendingReduces[:min(max-len(out), len(j.pendingReduces))]...)
		}
	}
	jt.reducePicks = out
	return out
}

// fairJobState tracks delay-scheduling state per job.
type fairJobState struct {
	waiting   bool
	waitStart float64
}

// localityWaitS is the Fair Scheduler's locality wait: the longest a
// job holds out for a node-local slot before it accepts a non-local
// assignment.
const localityWaitS = 5.0

// FairScheduler implements the Fair Scheduler of §V-F: per-user pools
// receive equal shares of the map slots; the most-starved pool is served
// first; and delay scheduling holds a job back for up to localityWaitS
// when it has no node-local split for the offering tracker, trading
// slot occupancy for locality (the paper measures 88% locality at 18%
// occupancy versus FIFO's 57% at 44%).
type FairScheduler struct {
	state map[*Job]*fairJobState
	// pools is poolOrder's result, reused by its next call.
	pools []fairPool
}

// fairPool is one user's jobs with maps left to pick, in submission
// order, ranked by deficit (running maps over the fair share) and then
// by its first job's ID.
type fairPool struct {
	user    string
	jobs    []*Job
	deficit float64
	firstID int
}

// NewFairScheduler returns a Fair Scheduler.
func NewFairScheduler() *FairScheduler {
	return &FairScheduler{state: make(map[*Job]*fairJobState)}
}

// Name implements TaskScheduler.
func (s *FairScheduler) Name() string { return "fair" }

// retireJob implements the tracker's jobRetirer hook.
func (s *FairScheduler) retireJob(j *Job) { delete(s.state, j) }

func (s *FairScheduler) jobState(j *Job) *fairJobState {
	st := s.state[j]
	if st == nil {
		st = &fairJobState{}
		s.state[j] = st
	}
	return st
}

// poolOrder groups the jobs with unpicked pending maps into per-user
// pools, most-starved first (fewest running maps relative to fair
// share), jobs FIFO within a pool. The result is valid until the next
// call.
func (s *FairScheduler) poolOrder(jt *JobTracker) []fairPool {
	pools := s.pools[:0]
	for _, j := range jt.jobs {
		if j.Done() || j.unpicked() == 0 {
			continue
		}
		i := 0
		for i < len(pools) && pools[i].user != j.User {
			i++
		}
		if i == len(pools) {
			pools = slices.Grow(pools, 1)[:i+1]
			pools[i] = fairPool{user: j.User, jobs: pools[i].jobs[:0], firstID: j.ID}
		}
		pools[i].jobs = append(pools[i].jobs, j)
	}
	s.pools = pools
	share := float64(jt.cluster.Cfg.TotalMapSlots()) / float64(len(pools))
	for i := range pools {
		running := 0
		for _, j := range pools[i].jobs {
			running += len(j.runningMaps)
		}
		pools[i].deficit = float64(running) / share
	}
	slices.SortFunc(pools, func(a, b fairPool) int {
		if c := cmp.Compare(a.deficit, b.deficit); c != 0 {
			return c
		}
		return cmp.Compare(a.firstID, b.firstID)
	})
	return pools
}

// AssignMaps implements TaskScheduler with delay scheduling. The result
// is the tracker's buffer, valid until its next AssignMaps call.
func (s *FairScheduler) AssignMaps(jt *JobTracker, tt *TaskTracker, max int) []*MapTask {
	now := jt.eng.Now()
	out := jt.picks[:0]
	for len(out) < max {
		picked := s.pickMap(jt, tt, now)
		if picked == nil {
			break
		}
		picked.pick()
		out = append(out, picked)
	}
	unpick(out)
	jt.picks = out
	return out
}

// pickMap returns the next map task to launch on tt, or nil. Every job
// poolOrder returns has an unpicked pending map.
func (s *FairScheduler) pickMap(jt *JobTracker, tt *TaskTracker, now float64) *MapTask {
	for _, pool := range s.poolOrder(jt) {
		for _, j := range pool.jobs {
			st := s.jobState(j)
			if t := j.localPendingTask(tt.node.ID); t != nil {
				st.waiting = false
				return t
			}
			if !st.waiting {
				st.waiting = true
				st.waitStart = now
				continue // hold out for locality; try next job
			}
			if now-st.waitStart >= localityWaitS {
				st.waiting = false
				return j.nextPending()
			}
			// Still within the locality wait: skip this job.
		}
	}
	return nil
}

// AssignReduces implements TaskScheduler with assignReduces.
func (s *FairScheduler) AssignReduces(jt *JobTracker, tt *TaskTracker, max int) []*ReduceTask {
	return assignReduces(jt, max)
}
