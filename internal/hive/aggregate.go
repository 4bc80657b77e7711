package hive

import (
	"fmt"
	"strings"

	"dynamicmr/internal/data"
	"dynamicmr/internal/expr"
	"dynamicmr/internal/mapreduce"
)

// Aggregation queries (COUNT/SUM/AVG/MIN/MAX with optional GROUP BY)
// compile to the classic MapReduce aggregation plan: the mapper
// hash-aggregates its split into per-group partial states, a combiner
// merges partials per map task, and the reducer merges and finalises.
// Partial states travel as flat records: [group values..., partials...].

// groupSep joins group-by values into the intermediate key.
const groupSep = "\x1f"

// aggPartialWidth returns how many record fields the aggregate's
// partial state occupies.
func aggPartialWidth(fn string) int {
	if fn == "AVG" {
		return 2 // sum, count
	}
	return 1
}

// aggState is one group's in-progress aggregation.
type aggState struct {
	count int64
	sum   float64
	min   data.Value
	max   data.Value
	seen  bool
}

// update folds one input record into the state for the given spec.
func (st *aggState) update(it SelectItem, rec data.Record) error {
	switch it.Agg {
	case "COUNT":
		if it.AggCol != "" && rec.MustGet(it.AggCol).IsNull() {
			return nil
		}
		st.count++
	case "SUM", "AVG":
		v := rec.MustGet(it.AggCol)
		if v.IsNull() {
			return nil
		}
		if !v.IsNumeric() {
			return fmt.Errorf("hive: %s over non-numeric column %s", it.Agg, it.AggCol)
		}
		st.sum += v.AsFloat()
		st.count++
	case "MIN", "MAX":
		v := rec.MustGet(it.AggCol)
		if v.IsNull() {
			return nil
		}
		if !st.seen {
			st.min, st.max, st.seen = v, v, true
			return nil
		}
		c, err := data.Compare(v, st.min)
		if err != nil {
			return err
		}
		if c < 0 {
			st.min = v
		}
		c, err = data.Compare(v, st.max)
		if err != nil {
			return err
		}
		if c > 0 {
			st.max = v
		}
	default:
		return fmt.Errorf("hive: unknown aggregate %q", it.Agg)
	}
	return nil
}

// partialValues serialises the state for the spec into record fields.
func (st *aggState) partialValues(it SelectItem) []data.Value {
	switch it.Agg {
	case "COUNT":
		return []data.Value{data.Int(st.count)}
	case "SUM":
		return []data.Value{data.Float(st.sum)}
	case "AVG":
		return []data.Value{data.Float(st.sum), data.Int(st.count)}
	case "MIN":
		if !st.seen {
			return []data.Value{data.Null()}
		}
		return []data.Value{st.min}
	case "MAX":
		if !st.seen {
			return []data.Value{data.Null()}
		}
		return []data.Value{st.max}
	}
	return nil
}

// mergePartial folds serialised partial fields into the state.
func (st *aggState) mergePartial(it SelectItem, vals []data.Value) error {
	switch it.Agg {
	case "COUNT":
		st.count += vals[0].AsInt()
	case "SUM":
		st.sum += vals[0].AsFloat()
	case "AVG":
		st.sum += vals[0].AsFloat()
		st.count += vals[1].AsInt()
	case "MIN", "MAX":
		v := vals[0]
		if v.IsNull() {
			return nil
		}
		if !st.seen {
			st.min, st.max, st.seen = v, v, true
			return nil
		}
		c, err := data.Compare(v, st.min)
		if err != nil {
			return err
		}
		if c < 0 {
			st.min = v
		}
		c, err = data.Compare(v, st.max)
		if err != nil {
			return err
		}
		if c > 0 {
			st.max = v
		}
	default:
		return fmt.Errorf("hive: unknown aggregate %q", it.Agg)
	}
	return nil
}

// finalValue produces the aggregate's output value.
func (st *aggState) finalValue(it SelectItem) data.Value {
	switch it.Agg {
	case "COUNT":
		return data.Int(st.count)
	case "SUM":
		return data.Float(st.sum)
	case "AVG":
		if st.count == 0 {
			return data.Null()
		}
		return data.Float(st.sum / float64(st.count))
	case "MIN":
		if !st.seen {
			return data.Null()
		}
		return st.min
	case "MAX":
		if !st.seen {
			return data.Null()
		}
		return st.max
	}
	return data.Null()
}

// aggPlan carries the compiled aggregation layout.
type aggPlan struct {
	items   []SelectItem // the SELECT list, in output order
	aggs    []SelectItem // just the aggregates, in output order
	groupBy []string
	// partialSchema is [G0..Gk, A0_0, A0_1, A1_0, ...].
	partialSchema *data.Schema
	outSchema     *data.Schema
	pred          expr.Expr
}

// newAggPlan validates the statement and lays out the partial schema.
func newAggPlan(sel *SelectStmt, table *data.Schema, pred expr.Expr) (*aggPlan, error) {
	p := &aggPlan{items: sel.Items, groupBy: sel.GroupBy, pred: pred}
	inGroup := map[string]bool{}
	for _, g := range sel.GroupBy {
		if !table.Has(g) {
			return nil, fmt.Errorf("hive: GROUP BY column %q not in table", g)
		}
		inGroup[strings.ToUpper(g)] = true
	}
	var outCols []string
	for _, it := range sel.Items {
		outCols = append(outCols, it.Name())
		if it.IsAggregate() {
			if it.AggCol != "" && !table.Has(it.AggCol) {
				return nil, fmt.Errorf("hive: aggregate column %q not in table", it.AggCol)
			}
			p.aggs = append(p.aggs, it)
			continue
		}
		if !inGroup[strings.ToUpper(it.Column)] {
			return nil, fmt.Errorf("hive: column %q must appear in GROUP BY", it.Column)
		}
		if !table.Has(it.Column) {
			return nil, fmt.Errorf("hive: column %q not in table", it.Column)
		}
	}
	var partialCols []string
	for i, g := range sel.GroupBy {
		partialCols = append(partialCols, fmt.Sprintf("G%d_%s", i, g))
	}
	for i, a := range p.aggs {
		for w := 0; w < aggPartialWidth(a.Agg); w++ {
			partialCols = append(partialCols, fmt.Sprintf("A%d_%d", i, w))
		}
	}
	p.partialSchema = data.NewSchema(partialCols...)
	p.outSchema = data.NewSchema(outCols...)
	return p, nil
}

// groupKey renders a record's group-by values as the intermediate key.
func (p *aggPlan) groupKey(rec data.Record) string {
	if len(p.groupBy) == 0 {
		return ""
	}
	parts := make([]string, len(p.groupBy))
	for i, g := range p.groupBy {
		parts[i] = rec.MustGet(g).String()
	}
	return strings.Join(parts, groupSep)
}

// aggGroup is one group's mapper-side accumulation.
type aggGroup struct {
	groupVals []data.Value
	states    []aggState
}

// aggMapper hash-aggregates a split (mapreduce.SplitMapper) so each
// map task emits one partial record per group it saw.
type aggMapper struct {
	plan   *aggPlan
	groups map[string]*aggGroup
	order  []string
}

func (m *aggMapper) group(key string, rec data.Record) *aggGroup {
	g, ok := m.groups[key]
	if !ok {
		g = &aggGroup{states: make([]aggState, len(m.plan.aggs))}
		for _, col := range m.plan.groupBy {
			g.groupVals = append(g.groupVals, rec.MustGet(col))
		}
		m.groups[key] = g
		m.order = append(m.order, key)
	}
	return g
}

// Map implements mapreduce.Mapper (per-record path).
func (m *aggMapper) Map(rec data.Record, out *mapreduce.Collector) error {
	ok, err := expr.EvalBool(m.plan.pred, rec)
	if err != nil || !ok {
		return err
	}
	return m.add(rec)
}

// add folds one matching record into its group's states.
func (m *aggMapper) add(rec data.Record) error {
	g := m.group(m.plan.groupKey(rec), rec)
	for i, it := range m.plan.aggs {
		if err := g.states[i].update(it, rec); err != nil {
			return err
		}
	}
	return nil
}

// MapSplit implements mapreduce.SplitMapper: accelerated match
// retrieval (or a filtered scan) followed by one partial emission per
// group.
func (m *aggMapper) MapSplit(ctx *mapreduce.TaskContext, out *mapreduce.Collector) error {
	m.groups = make(map[string]*aggGroup)
	m.order = nil

	var addErr error
	add := func(rec data.Record) bool {
		addErr = m.add(rec)
		return addErr == nil
	}
	processed := false
	if acc, ok := ctx.Source.(interface {
		AcceleratedMatches(fingerprint string, limit int64) ([]data.Record, bool)
	}); ok {
		if matches, hit := acc.AcceleratedMatches(m.plan.pred.String(), -1); hit {
			for _, rec := range matches {
				if !add(rec) {
					break
				}
			}
			processed = true
		}
	}
	if !processed {
		if err := expr.ScanFilter(ctx.Source, m.plan.pred, add); err != nil {
			return err
		}
	}
	if addErr != nil {
		return addErr
	}

	for _, key := range m.order {
		g := m.groups[key]
		vals := append([]data.Value(nil), g.groupVals...)
		for i, it := range m.plan.aggs {
			vals = append(vals, g.states[i].partialValues(it)...)
		}
		out.Emit(key, data.NewRecord(m.plan.partialSchema, vals))
	}
	return nil
}

// aggMerge merges partial records for one key into a fresh state set,
// returning the group values and merged states.
func (p *aggPlan) aggMerge(values []data.Record) ([]data.Value, []aggState, error) {
	states := make([]aggState, len(p.aggs))
	var groupVals []data.Value
	for vi, v := range values {
		if vi == 0 {
			for i := range p.groupBy {
				groupVals = append(groupVals, v.At(i))
			}
		}
		off := len(p.groupBy)
		for i, it := range p.aggs {
			w := aggPartialWidth(it.Agg)
			fields := make([]data.Value, w)
			for k := 0; k < w; k++ {
				fields[k] = v.At(off + k)
			}
			off += w
			if err := states[i].mergePartial(it, fields); err != nil {
				return nil, nil, err
			}
		}
	}
	return groupVals, states, nil
}

// aggCombiner merges one map task's partials per key back into a
// single partial record (mapreduce combiner).
type aggCombiner struct{ plan *aggPlan }

// Reduce implements mapreduce.Reducer.
func (c *aggCombiner) Reduce(key string, values []data.Record, out *mapreduce.Collector) error {
	groupVals, states, err := c.plan.aggMerge(values)
	if err != nil {
		return err
	}
	vals := append([]data.Value(nil), groupVals...)
	for i, it := range c.plan.aggs {
		vals = append(vals, states[i].partialValues(it)...)
	}
	out.Emit(key, data.NewRecord(c.plan.partialSchema, vals))
	return nil
}

// aggReducer merges all partials per key and emits the finalised
// output row in SELECT-list order.
type aggReducer struct{ plan *aggPlan }

// Reduce implements mapreduce.Reducer.
func (r *aggReducer) Reduce(key string, values []data.Record, out *mapreduce.Collector) error {
	groupVals, states, err := r.plan.aggMerge(values)
	if err != nil {
		return err
	}
	groupByIdx := map[string]int{}
	for i, g := range r.plan.groupBy {
		groupByIdx[strings.ToUpper(g)] = i
	}
	aggIdx := 0
	vals := make([]data.Value, 0, len(r.plan.items))
	for _, it := range r.plan.items {
		if it.IsAggregate() {
			vals = append(vals, states[aggIdx].finalValue(it))
			aggIdx++
		} else {
			vals = append(vals, groupVals[groupByIdx[strings.ToUpper(it.Column)]])
		}
	}
	out.Emit(key, data.NewRecord(r.plan.outSchema, vals))
	return nil
}

// buildAggJobSpec assembles the MapReduce job for an aggregation plan.
func buildAggJobSpec(plan *aggPlan, conf *mapreduce.JobConf) mapreduce.JobSpec {
	if conf == nil {
		conf = mapreduce.NewJobConf()
	}
	conf.SetInt(mapreduce.ConfNumReduces, 1)
	return mapreduce.JobSpec{
		Conf:        conf,
		NewMapper:   func(*mapreduce.JobConf) mapreduce.Mapper { return &aggMapper{plan: plan} },
		NewCombiner: func(*mapreduce.JobConf) mapreduce.Reducer { return &aggCombiner{plan: plan} },
		NewReducer:  func(*mapreduce.JobConf) mapreduce.Reducer { return &aggReducer{plan: plan} },
	}
}
