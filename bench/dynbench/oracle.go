package dynbench

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dynamicmr/internal/data"
	"dynamicmr/internal/dataset"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/hive"
	"dynamicmr/internal/mapreduce"
	"dynamicmr/internal/tpch"
)

// plantedTruth is the ground truth of one table's planted predicate: the
// multiset of every match projected to (L_ORDERKEY, L_PARTKEY,
// L_SUPPKEY), the columns the planted-predicate queries select. It is
// built once, before the loop, from the partitions' own planted rows.
// check allocates nothing: rows are found through an int64-keyed index
// on L_ORDERKEY (at most four rows share one), and the multiplicities
// seen in a job are reset lazily by stamping each row with the job's
// epoch.
type plantedTruth struct {
	first   map[int64]int32 // L_ORDERKEY → its first row in rows
	rows    []plantedRow    // sorted by key
	epoch   uint32
	matches int64
}

type plantedRow struct {
	key         [3]int64
	truth, seen int32
	stamp       uint32
}

func newPlantedTruth(ds *dataset.Dataset) (*plantedTruth, error) {
	var keys [][3]int64
	fp := ds.PredicateFingerprint()
	for _, p := range ds.Partitions() {
		recs, ok := p.AcceleratedMatches(fp, -1)
		if !ok {
			return nil, fmt.Errorf("dynbench: %s: no planted matches for %s", ds.Name(), fp)
		}
		for _, r := range recs {
			keys = append(keys, [3]int64{r.At(tpch.ColOrderKey).AsInt(), r.At(tpch.ColPartKey).AsInt(), r.At(tpch.ColSuppKey).AsInt()})
		}
	}
	slices.SortFunc(keys, func(a, b [3]int64) int {
		for i := range a {
			if c := cmp.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	t := &plantedTruth{first: make(map[int64]int32), matches: int64(len(keys))}
	for _, k := range keys {
		if n := len(t.rows); n > 0 && t.rows[n-1].key == k {
			t.rows[n-1].truth++
			continue
		}
		if _, ok := t.first[k[0]]; !ok {
			t.first[k[0]] = int32(len(t.rows))
		}
		t.rows = append(t.rows, plantedRow{key: k, truth: 1})
	}
	return t, nil
}

// check verifies one planted-predicate job: exactly min(k, matches) rows
// (k < 0: every match), each a projected planted match, and no row more
// often than the truth holds it.
func (t *plantedTruth) check(rows []mapreduce.KeyValue, k int64) error {
	want := t.matches
	if k >= 0 && k < want {
		want = k
	}
	if int64(len(rows)) != want {
		return fmt.Errorf("%d rows, want %d", len(rows), want)
	}
	t.epoch++
	for _, kv := range rows {
		r := kv.Value
		if r.Len() != 3 {
			return fmt.Errorf("row has %d columns, want 3", r.Len())
		}
		key := [3]int64{r.At(0).AsInt(), r.At(1).AsInt(), r.At(2).AsInt()}
		row := t.find(key)
		if row == nil {
			return fmt.Errorf("row %v is not a planted match", key)
		}
		if row.stamp != t.epoch {
			row.stamp, row.seen = t.epoch, 0
		}
		row.seen++
		if row.seen > row.truth {
			return fmt.Errorf("row %v appears %d times, truth holds %d", key, row.seen, row.truth)
		}
	}
	return nil
}

func (t *plantedTruth) find(key [3]int64) *plantedRow {
	i, ok := t.first[key[0]]
	if !ok {
		return nil
	}
	for ; int(i) < len(t.rows) && t.rows[i].key[0] == key[0]; i++ {
		if t.rows[i].key == key {
			return &t.rows[i]
		}
	}
	return nil
}

// adhocOracle checks the ad hoc analyst's queries: each returned row
// satisfies its predicate, evaluated on the projected row itself (the
// projection keeps the predicate's columns), no generated row is
// returned twice, and the count is k. Only a short result pays for a
// brute-force recount of the table's matches, up to k of them.
type adhocOracle struct {
	ds    *dataset.Dataset
	preds map[string]expr.Expr // by SQL text, parsed once before the loop
	ids   []int64              // reused row-id buffer, sized to the largest k
}

func newAdhocOracle(ds *dataset.Dataset, qs []query) (*adhocOracle, error) {
	o := &adhocOracle{ds: ds, preds: make(map[string]expr.Expr, len(qs))}
	var maxK int64
	for _, q := range qs {
		st, err := hive.Parse(q.sql)
		if err != nil {
			return nil, err
		}
		sel, ok := st.(*hive.SelectStmt)
		if !ok || sel.Where == nil {
			return nil, fmt.Errorf("dynbench: ad hoc query without a predicate: %s", q.sql)
		}
		o.preds[q.sql] = sel.Where
		maxK = max(maxK, q.k)
	}
	o.ids = make([]int64, 0, maxK)
	return o, nil
}

// check verifies one ad hoc job. Rows are (L_ORDERKEY, L_LINENUMBER,
// L_QUANTITY, L_DISCOUNT); a row's generator id is (orderkey-1)*4 +
// linenumber-1, so uniqueness is a sort of int64 ids.
func (o *adhocOracle) check(rows []mapreduce.KeyValue, q query) error {
	pred := o.preds[q.sql]
	o.ids = o.ids[:0]
	for _, kv := range rows {
		r := kv.Value
		if r.Len() != 4 {
			return fmt.Errorf("row has %d columns, want 4", r.Len())
		}
		ok, err := expr.EvalBool(pred, r)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("row %s does not satisfy %s", r, pred)
		}
		o.ids = append(o.ids, (r.At(0).AsInt()-1)*4+r.At(1).AsInt()-1)
	}
	slices.Sort(o.ids)
	for i := 1; i < len(o.ids); i++ {
		if o.ids[i] == o.ids[i-1] {
			return fmt.Errorf("row id %d returned twice", o.ids[i])
		}
	}
	if int64(len(rows)) == q.k {
		return nil
	}
	if int64(len(rows)) > q.k {
		return fmt.Errorf("%d rows, want %d", len(rows), q.k)
	}
	// Count matches only until k: the recount must show the table has
	// fewer than k, and stops as soon as it has seen k.
	var total int64
	for _, p := range o.ds.Partitions() {
		recs, err := p.ScanMatches(pred, q.k-total)
		if err != nil {
			return err
		}
		if total += int64(len(recs)); total >= q.k {
			break
		}
	}
	if int64(len(rows)) != total {
		return fmt.Errorf("%d rows, want min(k=%d, matches)", len(rows), q.k)
	}
	return nil
}

// digest folds job outputs into one xor-multiply hash over 64-bit
// words, in completion order, so two runs that must replay the same
// timeline can be compared with one number. It allocates nothing.
type digest uint64

const (
	digestOffset digest = 14695981039346656037
	digestPrime  digest = 1099511628211
)

func (d *digest) word(w uint64) { *d = (*d ^ digest(w)) * digestPrime }

func (d *digest) job(seq int64, rows []mapreduce.KeyValue) {
	d.word(uint64(seq))
	d.word(uint64(len(rows)))
	for _, kv := range rows {
		r := kv.Value
		for i := 0; i < r.Len(); i++ {
			v := r.At(i)
			switch v.Kind() {
			case data.KindInt, data.KindBool:
				d.word(uint64(v.AsInt()))
			case data.KindFloat:
				d.word(math.Float64bits(v.AsFloat()))
			case data.KindString:
				s := v.AsString()
				for j := 0; j < len(s); j++ {
					d.word(uint64(s[j]))
				}
			}
		}
	}
}
