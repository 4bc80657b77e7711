package mapreduce

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dynamicmr/internal/cluster"
	"dynamicmr/internal/dfs"
	"dynamicmr/internal/sim"
)

// refTracker is the reference for TestAssignMapsMatchesReference: the
// FIFO and Fair AssignMaps as they were before picks were marked,
// taking each pick out of a pending slice and putting it back in front
// when the call returns. It keeps its own pending slices and Fair
// waiting state and reads everything else (jobs, users, running maps,
// the clock) from the tracker under test. expired counts the Fair picks
// made once a job's locality wait ran out.
type refTracker struct {
	jt      *JobTracker
	jobs    []*refJob
	byJob   map[*Job]*refJob
	state   map[*Job]*fairJobState
	expired int
}

type refJob struct {
	*Job
	pendingMaps []*MapTask
}

func (j *refJob) localPendingTask(node int) *MapTask {
	for _, t := range j.pendingMaps {
		if _, ok := t.Split.Block.LocalTo(node); ok {
			return t
		}
	}
	return nil
}

func (j *refJob) takePending(t *MapTask) {
	for i, x := range j.pendingMaps {
		if x == t {
			j.pendingMaps = append(j.pendingMaps[:i], j.pendingMaps[i+1:]...)
			return
		}
	}
	panic("mapreduce: task not pending")
}

func (r *refTracker) fifoAssignMaps(tt *TaskTracker, max int) []*MapTask {
	var out []*MapTask
	for len(out) < max {
		var picked *MapTask
		for _, j := range r.jobs {
			if j.Done() || len(j.pendingMaps) == 0 {
				continue
			}
			if t := j.localPendingTask(tt.node.ID); t != nil {
				picked = t
			} else {
				picked = j.pendingMaps[0]
			}
			break
		}
		if picked == nil {
			break
		}
		out = append(out, picked)
		r.byJob[picked.Job].takePending(picked)
		defer func(t *MapTask) {
			j := r.byJob[t.Job]
			j.pendingMaps = append([]*MapTask{t}, j.pendingMaps...)
		}(picked)
	}
	return out
}

func (r *refTracker) jobState(j *Job) *fairJobState {
	st := r.state[j]
	if st == nil {
		st = &fairJobState{}
		r.state[j] = st
	}
	return st
}

func (r *refTracker) poolOrder() [][]*refJob {
	pools := make(map[string][]*refJob)
	var names []string
	for _, j := range r.jobs {
		if j.Done() || len(j.pendingMaps) == 0 {
			continue
		}
		if _, ok := pools[j.User]; !ok {
			names = append(names, j.User)
		}
		pools[j.User] = append(pools[j.User], j)
	}
	if len(names) == 0 {
		return nil
	}
	share := float64(r.jt.cluster.Cfg.TotalMapSlots()) / float64(len(names))
	type ranked struct {
		name    string
		deficit float64
		firstID int
	}
	rs := make([]ranked, 0, len(names))
	for _, n := range names {
		running := 0
		for _, j := range pools[n] {
			running += len(j.runningMaps)
		}
		rs = append(rs, ranked{name: n, deficit: float64(running) / share, firstID: pools[n][0].ID})
	}
	sort.Slice(rs, func(i, k int) bool {
		if rs[i].deficit != rs[k].deficit {
			return rs[i].deficit < rs[k].deficit
		}
		return rs[i].firstID < rs[k].firstID
	})
	out := make([][]*refJob, len(rs))
	for i, x := range rs {
		out[i] = pools[x.name]
	}
	return out
}

func (r *refTracker) fairAssignMaps(tt *TaskTracker, max int) []*MapTask {
	now := r.jt.eng.Now()
	var out []*MapTask
	var undo []*MapTask
	defer func() {
		for _, t := range undo {
			j := r.byJob[t.Job]
			j.pendingMaps = append([]*MapTask{t}, j.pendingMaps...)
		}
	}()
	for len(out) < max {
		var picked *MapTask
	search:
		for _, pool := range r.poolOrder() {
			for _, j := range pool {
				if len(j.pendingMaps) == 0 {
					continue
				}
				st := r.jobState(j.Job)
				if t := j.localPendingTask(tt.node.ID); t != nil {
					picked = t
					st.waiting = false
					break search
				}
				if !st.waiting {
					st.waiting = true
					st.waitStart = now
					continue
				}
				if now-st.waitStart >= localityWaitS {
					picked = j.pendingMaps[0]
					st.waiting = false
					r.expired++
					break search
				}
			}
		}
		if picked == nil {
			break
		}
		out = append(out, picked)
		r.byJob[picked.Job].takePending(picked)
		undo = append(undo, picked)
	}
	return out
}

// pendingOrder lists a job's pending queue front to back.
func pendingOrder(j *Job) []*MapTask {
	var out []*MapTask
	for t := j.pendHead; t != nil; t = t.next {
		out = append(out, t)
	}
	return out
}

// TestAssignMapsMatchesReference runs FIFO and Fair AssignMaps against
// refTracker over random jobs, users, pending queues, replica nodes,
// running maps and clock advances, several scheduling rounds each, with
// failed tasks requeued and splits added between rounds. Every round
// must pick the same tasks in the same order, leave the same pending
// order once the picks launch, and (Fair) the same waiting state.
func TestAssignMapsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	users := []string{"ann", "bob", "cyd", "dee"}
	expired := 0
	for trial := 0; trial < 600; trial++ {
		fair := trial%2 == 1
		eng := sim.NewEngine()
		cl := cluster.New(eng, cluster.PaperConfig())
		var sched TaskScheduler = NewFIFOScheduler()
		if fair {
			sched = NewFairScheduler()
		}
		jt := NewJobTracker(cl, DefaultConfig(), sched)
		ref := &refTracker{jt: jt, byJob: map[*Job]*refJob{}, state: map[*Job]*fairJobState{}}
		nUsers := 1 + rng.Intn(len(users))
		addTask := func(j *Job) {
			var reps []dfs.Location
			for _, n := range rng.Perm(cluster.Nodes)[:1+rng.Intn(3)] {
				reps = append(reps, dfs.Location{Node: n})
			}
			mt := &MapTask{Job: j, Index: j.scheduled, Split: Split{Block: &dfs.Block{Replicas: reps}}}
			j.scheduled++
			j.pushPending(mt)
			ref.byJob[j].pendingMaps = append(ref.byJob[j].pendingMaps, mt)
		}
		nJobs := 1 + rng.Intn(6)
		for id := 0; id < nJobs; id++ {
			j := &Job{ID: id, User: users[rng.Intn(nUsers)], runningMaps: map[*MapTask]struct{}{}}
			if rng.Intn(10) == 0 {
				j.state = StateSucceeded
			}
			jt.jobs = append(jt.jobs, j)
			rj := &refJob{Job: j}
			ref.jobs = append(ref.jobs, rj)
			ref.byJob[j] = rj
			for k := rng.Intn(8); k > 0; k-- {
				addTask(j)
			}
			for k := rng.Intn(6); k > 0; k-- {
				j.runningMaps[&MapTask{Job: j}] = struct{}{}
			}
		}
		var launched []*MapTask
		for round := 0; round < 8; round++ {
			eng.RunUntil(eng.Now() + float64(rng.Intn(3)))
			tt := jt.trackers[rng.Intn(len(jt.trackers))]
			max := 1 + rng.Intn(4)
			got := slices.Clone(sched.AssignMaps(jt, tt, max))
			var want []*MapTask
			if fair {
				want = ref.fairAssignMaps(tt, max)
			} else {
				want = ref.fifoAssignMaps(tt, max)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d round %d (fair=%v max=%d node=%d): picked %v, reference %v",
					trial, round, fair, max, tt.node.ID, taskIDs(got), taskIDs(want))
			}
			// Launch every pick, as JobTracker.assign does.
			for _, p := range got {
				p.Job.takePending(p)
				ref.byJob[p.Job].takePending(p)
				p.Job.runningMaps[p] = struct{}{}
				launched = append(launched, p)
			}
			for _, j := range ref.jobs {
				if got, want := pendingOrder(j.Job), j.pendingMaps; !slices.Equal(got, want) {
					t.Fatalf("trial %d round %d: job %d pending %v after launch, reference %v",
						trial, round, j.ID, taskIDs(got), taskIDs(want))
				}
				if j.unpicked() != len(j.pendingMaps) {
					t.Fatalf("trial %d round %d: job %d has %d unpicked of %d pending after launch",
						trial, round, j.ID, j.unpicked(), len(j.pendingMaps))
				}
				if fair {
					a, b := sched.(*FairScheduler).state[j.Job], ref.state[j.Job]
					if (a == nil) != (b == nil) || (a != nil && *a != *b) {
						t.Fatalf("trial %d round %d: job %d waiting state %+v, reference %+v", trial, round, j.ID, a, b)
					}
				}
			}
			// Churn: a launched attempt fails and its task is requeued at
			// the back, and new splits arrive.
			if len(launched) > 0 && rng.Intn(2) == 0 {
				i := rng.Intn(len(launched))
				p := launched[i]
				launched = slices.Delete(launched, i, i+1)
				delete(p.Job.runningMaps, p)
				p.Job.pushPending(p)
				ref.byJob[p.Job].pendingMaps = append(ref.byJob[p.Job].pendingMaps, p)
			}
			for k := rng.Intn(3); k > 0; k-- {
				addTask(jt.jobs[rng.Intn(len(jt.jobs))])
			}
		}
		expired += ref.expired
	}
	// The rounds advance the clock past the 5 s locality wait often
	// enough to take the non-local pick after it.
	if expired < 100 {
		t.Fatalf("only %d picks after an expired locality wait", expired)
	}
}

func taskIDs(ts []*MapTask) [][2]int {
	out := make([][2]int, len(ts))
	for i, t := range ts {
		out[i] = [2]int{t.Job.ID, t.Index}
	}
	return out
}
