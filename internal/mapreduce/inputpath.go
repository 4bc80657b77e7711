package mapreduce

import (
	"dynamicmr/internal/data"
)

// Input-path modes: how a map task reads its split. The zone map built
// at dataset load time (internal/dataset, data.StatSource) lets the
// skip and index modes touch only the statistics sub-blocks that can
// hold matching records, charging simulated I/O — and, when the source
// is prunable, real scan work — for just the blocks actually read.
const (
	// InputPathFull reads every block of every split: the seed
	// behaviour, byte-identical at every worker count.
	InputPathFull = "full"
	// InputPathSkip reads only the statistics sub-blocks that admit at
	// least one record matching the job's FilterFingerprint.
	InputPathSkip = "skip"
	// InputPathIndex reads matching records through a clustered index:
	// one probe per match-admitting sub-block plus the matching records
	// themselves.
	InputPathIndex = "index"
)

// ValidInputPath reports whether mode names an input-path mode ("" is
// accepted and means InputPathFull).
func ValidInputPath(mode string) bool {
	switch mode {
	case "", InputPathFull, InputPathSkip, InputPathIndex:
		return true
	}
	return false
}

// inputPath resolves a job's input-path mode: the job conf's
// dynamic.input.path wins, then the runtime default, then full.
func (jt *JobTracker) inputPath(j *Job) string {
	if m := j.Conf.Get(ConfInputPath, ""); m != "" {
		return m
	}
	return jt.InputPath()
}

// InputPath returns the runtime's default input-path mode (full when
// unconfigured).
func (jt *JobTracker) InputPath() string {
	if jt.cfg.InputPath != "" {
		return jt.cfg.InputPath
	}
	return InputPathFull
}

// scanCharge is what one map attempt pays to read its split: simulated
// I/O bytes, input records, and the zone-map accounting behind them.
type scanCharge struct {
	bytes         float64
	records       int64
	blocksRead    int64
	blocksSkipped int64
}

// scanCharge computes the attempt's read cost. A pure function of
// (job conf/spec, split), so completion-time accounting can recompute
// it. Without a filter fingerprint, or without statistics for it, every
// mode degenerates to a full read of the split counted as one block —
// the seed's exact charge.
func (jt *JobTracker) scanCharge(j *Job, sp Split) scanCharge {
	full := scanCharge{bytes: float64(sp.SizeBytes()), records: sp.NumRecords(), blocksRead: 1}
	fp := j.Spec.FilterFingerprint
	if fp == "" {
		return full
	}
	st, ok := sp.Block.BlockStats(fp)
	if !ok || st.Blocks == 0 {
		return full
	}
	switch jt.inputPath(j) {
	case InputPathSkip:
		return scanCharge{
			bytes:         float64(st.MatchBytes),
			records:       st.MatchRows,
			blocksRead:    int64(st.MatchBlocks),
			blocksSkipped: int64(st.Blocks - st.MatchBlocks),
		}
	case InputPathIndex:
		var rowBytes float64
		if st.Rows > 0 {
			rowBytes = float64(st.Bytes) / float64(st.Rows)
		}
		return scanCharge{
			bytes:         float64(st.MatchBlocks)*indexProbeBytes + float64(st.Matches)*rowBytes,
			records:       st.Matches,
			blocksRead:    int64(st.MatchBlocks),
			blocksSkipped: int64(st.Blocks - st.MatchBlocks),
		}
	default:
		full.blocksRead = int64(st.Blocks)
		return full
	}
}

// scanSource returns the source a map attempt's real record scan runs
// over: the block's source, or its pruned view under skip/index when
// the job declares a filter fingerprint the source has statistics for.
// Block identity — memo-cache and scan-executor keys — always uses the
// original source; only the scan itself is narrowed.
func (jt *JobTracker) scanSource(j *Job, sp Split) data.Source {
	src := sp.Block.Source
	mode := jt.inputPath(j)
	if mode == InputPathFull || mode == "" || j.Spec.FilterFingerprint == "" {
		return src
	}
	if ps, ok := src.(data.PrunableSource); ok {
		if v, ok := ps.PruneScan(j.Spec.FilterFingerprint, mode == InputPathIndex); ok {
			return v
		}
	}
	return src
}

// effMemo returns the job's effective memo key. Skip/index reads of a
// fingerprinted job are kept in a separate memo namespace from full
// reads: the FilterFingerprint contract makes their outputs identical,
// but the cache never relies on an unverified declaration across
// modes. Full mode returns the spec key unchanged, preserving the
// seed's sharing exactly.
func (jt *JobTracker) effMemo(j *Job) string {
	memo := j.Spec.MemoKey
	if memo == "" {
		return ""
	}
	if mode := jt.inputPath(j); mode != InputPathFull && mode != "" && j.Spec.FilterFingerprint != "" {
		return memo + "|path=" + mode
	}
	return memo
}
