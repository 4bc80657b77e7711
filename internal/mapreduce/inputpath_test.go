package mapreduce

import (
	"sync/atomic"
	"testing"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dfs"
)

const testFP = "(TEST = 1)"

// fakeStatSrc is a data.Source with hand-written zone statistics and
// pruned views: the first stats.MatchRows records stand in for the
// match-admitting sub-blocks, and the first stats.Matches records for
// the clustered-index reads.
type fakeStatSrc struct {
	recs  []data.Record
	stats data.BlockStats
}

func newFakeStatSrc(base int64) *fakeStatSrc {
	recs := make([]data.Record, 100)
	for i := range recs {
		v := base + int64(i)
		recs[i] = data.NewRecord(kvSchema, []data.Value{data.Int(v), data.Int(v * 10)})
	}
	return &fakeStatSrc{
		recs: recs,
		stats: data.BlockStats{
			Blocks: 10, MatchBlocks: 2,
			Rows: 100, Bytes: 5000,
			MatchRows: 20, MatchBytes: 1000,
			Matches: 5,
		},
	}
}

func (s *fakeStatSrc) Schema() *data.Schema { return kvSchema }
func (s *fakeStatSrc) NumRecords() int64    { return int64(len(s.recs)) }
func (s *fakeStatSrc) SizeBytes() int64     { return s.stats.Bytes }
func (s *fakeStatSrc) Scan(yield func(data.Record) bool) {
	for _, r := range s.recs {
		if !yield(r) {
			return
		}
	}
}

func (s *fakeStatSrc) BlockStats(fp string) (data.BlockStats, bool) {
	if fp != testFP {
		return data.BlockStats{}, false
	}
	return s.stats, true
}

func (s *fakeStatSrc) PruneScan(fp string, indexed bool) (data.Source, bool) {
	if fp != testFP {
		return nil, false
	}
	n := s.stats.MatchRows
	if indexed {
		n = s.stats.Matches
	}
	return data.NewSliceSource(kvSchema, s.recs[:n]), true
}

// makeStatFile stores blocks of fakeStatSrc in the rig's DFS.
func makeStatFile(t *testing.T, r *testRig, blocks int) *dfs.File {
	t.Helper()
	srcs := make([]data.Source, blocks)
	for i := range srcs {
		srcs[i] = newFakeStatSrc(int64(i) * 1000)
	}
	f, err := r.fs.Create("statin", srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runPathJob runs one fingerprinted job under the given input-path mode
// (set on the job conf) and returns it.
func runPathJob(t *testing.T, r *testRig, f *dfs.File, mode, memo string) *Job {
	t.Helper()
	conf := NewJobConf()
	if mode != "" {
		conf.Set(ConfInputPath, mode)
	}
	job := r.jt.Submit(JobSpec{
		Conf:              conf,
		NewMapper:         func(*JobConf) Mapper { return dummyKeyMapper{} },
		MemoKey:           memo,
		FilterFingerprint: testFP,
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e8) || job.State() != StateSucceeded {
		t.Fatalf("mode %q: state=%v failure=%q", mode, job.State(), job.Failure())
	}
	return job
}

func TestScanChargeByMode(t *testing.T) {
	const blocks = 4
	r := newRig(t, nil)
	f := makeStatFile(t, r, blocks)

	full := runPathJob(t, r, f, InputPathFull, "")
	if full.Counters.ScanBlocksRead != blocks*10 || full.Counters.ScanBlocksSkipped != 0 {
		t.Fatalf("full blocks: read=%d skipped=%d, want %d/0",
			full.Counters.ScanBlocksRead, full.Counters.ScanBlocksSkipped, blocks*10)
	}
	if full.Counters.MapInputRecords != blocks*100 || full.Counters.BytesRead != blocks*5000 {
		t.Fatalf("full charge: records=%d bytes=%d", full.Counters.MapInputRecords, full.Counters.BytesRead)
	}
	if full.Counters.MapOutputRecords != blocks*100 {
		t.Fatalf("full scanned %d records, want %d", full.Counters.MapOutputRecords, blocks*100)
	}

	skip := runPathJob(t, r, f, InputPathSkip, "")
	if skip.Counters.ScanBlocksRead != blocks*2 || skip.Counters.ScanBlocksSkipped != blocks*8 {
		t.Fatalf("skip blocks: read=%d skipped=%d, want %d/%d",
			skip.Counters.ScanBlocksRead, skip.Counters.ScanBlocksSkipped, blocks*2, blocks*8)
	}
	if skip.Counters.MapInputRecords != blocks*20 || skip.Counters.BytesRead != blocks*1000 {
		t.Fatalf("skip charge: records=%d bytes=%d", skip.Counters.MapInputRecords, skip.Counters.BytesRead)
	}
	if skip.Counters.MapOutputRecords != blocks*20 {
		t.Fatalf("skip scanned %d records, want %d (pruned view)", skip.Counters.MapOutputRecords, blocks*20)
	}
	if skip.ResponseTime() >= full.ResponseTime() {
		t.Fatalf("skip response %.4fs not faster than full %.4fs", skip.ResponseTime(), full.ResponseTime())
	}

	idx := runPathJob(t, r, f, InputPathIndex, "")
	if idx.Counters.ScanBlocksRead != blocks*2 || idx.Counters.ScanBlocksSkipped != blocks*8 {
		t.Fatalf("index blocks: read=%d skipped=%d", idx.Counters.ScanBlocksRead, idx.Counters.ScanBlocksSkipped)
	}
	if idx.Counters.MapInputRecords != blocks*5 {
		t.Fatalf("index records=%d, want %d", idx.Counters.MapInputRecords, blocks*5)
	}
	// Per split: 2 probes x indexProbeBytes + 5 matches x (5000/100) B.
	wantBytes := int64(blocks * (2*indexProbeBytes + 5*50))
	if idx.Counters.BytesRead != wantBytes {
		t.Fatalf("index bytes=%d, want %d", idx.Counters.BytesRead, wantBytes)
	}
	if idx.Counters.MapOutputRecords != blocks*5 {
		t.Fatalf("index scanned %d records, want %d (clustered-index view)", idx.Counters.MapOutputRecords, blocks*5)
	}

	// JobStatus mirrors the counters.
	st := r.jt.Status(skip)
	if st.ScanBlocksRead != skip.Counters.ScanBlocksRead || st.ScanBlocksSkip != skip.Counters.ScanBlocksSkipped {
		t.Fatalf("status counters %d/%d diverge from job %d/%d",
			st.ScanBlocksRead, st.ScanBlocksSkip, skip.Counters.ScanBlocksRead, skip.Counters.ScanBlocksSkipped)
	}
}

// A job without a FilterFingerprint pays the full charge under every
// mode — statistics only apply to declared-pure filters.
func TestSkipModeWithoutFingerprintReadsFully(t *testing.T) {
	r := newRig(t, nil)
	r.jt.cfg.InputPath = InputPathSkip
	f := makeStatFile(t, r, 2)
	job := r.jt.Submit(JobSpec{
		NewMapper: func(*JobConf) Mapper { return dummyKeyMapper{} },
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e8) || job.State() != StateSucceeded {
		t.Fatalf("state=%v", job.State())
	}
	if job.Counters.MapInputRecords != 200 || job.Counters.ScanBlocksSkipped != 0 {
		t.Fatalf("unfingerprinted job pruned: %+v", job.Counters)
	}
}

// Sources without statistics fall back to the full charge, counted as
// one block (the seed's accounting).
func TestSkipModeWithoutStatsReadsFully(t *testing.T) {
	r := newRig(t, nil)
	r.jt.cfg.InputPath = InputPathSkip
	f := r.makeFile(t, "plain", 3, 10)
	conf := NewJobConf()
	job := r.jt.Submit(JobSpec{
		Conf:              conf,
		NewMapper:         func(*JobConf) Mapper { return dummyKeyMapper{} },
		FilterFingerprint: testFP,
	}, SplitsForFile(f))
	if !RunUntilDone(r.eng, job, 1e8) || job.State() != StateSucceeded {
		t.Fatalf("state=%v", job.State())
	}
	if job.Counters.MapInputRecords != 30 || job.Counters.ScanBlocksRead != 3 || job.Counters.ScanBlocksSkipped != 0 {
		t.Fatalf("stat-less source mischarged: %+v", job.Counters)
	}
}

// The runtime default applies when the job conf is silent, and the conf
// overrides it in either direction.
func TestInputPathConfOverridesRuntimeDefault(t *testing.T) {
	r := newRig(t, nil)
	r.jt.cfg.InputPath = InputPathSkip
	f := makeStatFile(t, r, 2)

	// No conf key: runtime default (skip) applies.
	def := runPathJob(t, r, f, "", "")
	if def.Counters.MapInputRecords != 2*20 {
		t.Fatalf("runtime default ignored: records=%d", def.Counters.MapInputRecords)
	}
	// Conf says full: overrides the skip default.
	full := runPathJob(t, r, f, InputPathFull, "")
	if full.Counters.MapInputRecords != 2*100 {
		t.Fatalf("conf override ignored: records=%d", full.Counters.MapInputRecords)
	}
}

// Memo isolation: full and skip reads of the same MemoKey never share
// cached map outputs, while two skip reads do.
func TestMemoIsolationAcrossInputPaths(t *testing.T) {
	cache := NewMapOutputCache()
	r := newMemoRig(t, cache)
	f := makeStatFile(t, r, 4)

	var execs atomic.Int64
	run := func(mode string) *Job {
		conf := NewJobConf()
		conf.Set(ConfInputPath, mode)
		job := r.jt.Submit(JobSpec{
			Conf: conf,
			NewMapper: func(*JobConf) Mapper {
				execs.Add(1)
				return dummyKeyMapper{}
			},
			MemoKey:           "iso|v1",
			FilterFingerprint: testFP,
		}, SplitsForFile(f))
		if !RunUntilDone(r.eng, job, 1e8) || job.State() != StateSucceeded {
			t.Fatalf("mode %q: state=%v", mode, job.State())
		}
		return job
	}

	run(InputPathFull)
	if got := execs.Load(); got != 4 {
		t.Fatalf("full ran %d mappers, want 4", got)
	}
	skip1 := run(InputPathSkip)
	if got := execs.Load(); got != 8 {
		t.Fatalf("skip hit full's memo entries: execs=%d, want 8", got)
	}
	skip2 := run(InputPathSkip)
	if got := execs.Load(); got != 8 {
		t.Fatalf("second skip missed the memo: execs=%d, want 8", got)
	}
	if len(skip1.Output()) != len(skip2.Output()) {
		t.Fatalf("memoised skip output differs: %d vs %d", len(skip1.Output()), len(skip2.Output()))
	}
}
