package hive

import (
	"fmt"
	"strings"

	"dynamicmr/internal/expr"
)

// Statement is any parsed HiveQL statement.
type Statement interface {
	// String renders the statement in re-parseable SQL.
	String() string
}

// SelectItem is one entry of a SELECT list: a plain column or an
// aggregate call.
type SelectItem struct {
	// Column is the column name for plain items (Agg == "").
	Column string
	// Agg is the aggregate function (COUNT, SUM, AVG, MIN, MAX); ""
	// for plain columns.
	Agg string
	// AggCol is the aggregate's argument column; "" means COUNT(*).
	AggCol string
}

// IsAggregate reports whether the item is an aggregate call.
func (it SelectItem) IsAggregate() bool { return it.Agg != "" }

// Name returns the item's output column name.
func (it SelectItem) Name() string {
	if !it.IsAggregate() {
		return it.Column
	}
	arg := it.AggCol
	if arg == "" {
		arg = "*"
	}
	return fmt.Sprintf("%s(%s)", it.Agg, arg)
}

// String renders the item in SQL.
func (it SelectItem) String() string { return it.Name() }

// OrderKey is one ORDER BY entry.
type OrderKey struct {
	// Column is the output column to sort by.
	Column string
	// Desc selects descending order.
	Desc bool
}

// String renders the key in SQL.
func (k OrderKey) String() string {
	if k.Desc {
		return k.Column + " DESC"
	}
	return k.Column
}

// SelectStmt is
// SELECT items FROM table [WHERE pred] [GROUP BY cols]
// [ORDER BY keys] [LIMIT k].
type SelectStmt struct {
	// Items lists the projection; nil means "*" (Star selects).
	Items []SelectItem
	// Table is the source table name.
	Table string
	// Where is the predicate; nil means none.
	Where expr.Expr
	// GroupBy lists the grouping columns; nil means none.
	GroupBy []string
	// OrderBy lists the sort keys; nil means none. ORDER BY forces a
	// full (static) scan — a sorted LIMIT is a top-k query, not a
	// sample.
	OrderBy []OrderKey
	// Limit is the LIMIT value; -1 means absent.
	Limit int64
}

// Columns returns the plain projection column names, or nil for "*" or
// aggregate queries.
func (s *SelectStmt) Columns() []string {
	if s.Items == nil || s.HasAggregates() {
		return nil
	}
	out := make([]string, len(s.Items))
	for i, it := range s.Items {
		out[i] = it.Column
	}
	return out
}

// HasAggregates reports whether any select item is an aggregate.
func (s *SelectStmt) HasAggregates() bool {
	for _, it := range s.Items {
		if it.IsAggregate() {
			return true
		}
	}
	return false
}

// String implements Statement.
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Items == nil {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	fmt.Fprintf(&b, " FROM %s", s.Table)
	if s.Where != nil {
		fmt.Fprintf(&b, " WHERE %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		fmt.Fprintf(&b, " GROUP BY %s", strings.Join(s.GroupBy, ", "))
	}
	if len(s.OrderBy) > 0 {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = k.String()
		}
		fmt.Fprintf(&b, " ORDER BY %s", strings.Join(keys, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// SetStmt is SET key = value (Hive's conf override mechanism; the paper
// selects the policy by "setting the dynamic.job.policy parameter
// accordingly" from the CLI).
type SetStmt struct {
	Key   string
	Value string
}

// String implements Statement. The value renders quoted, so it parses
// back to itself whatever characters it holds.
func (s *SetStmt) String() string {
	return fmt.Sprintf("SET %s = '%s'", s.Key, strings.ReplaceAll(s.Value, "'", "''"))
}

// ExplainStmt is EXPLAIN <select>.
type ExplainStmt struct {
	Select *SelectStmt
}

// String implements Statement.
func (s *ExplainStmt) String() string { return "EXPLAIN " + s.Select.String() }

// ShowTablesStmt is SHOW TABLES.
type ShowTablesStmt struct{}

// String implements Statement.
func (ShowTablesStmt) String() string { return "SHOW TABLES" }

// DescribeStmt is DESCRIBE <table>.
type DescribeStmt struct {
	Table string
}

// String implements Statement.
func (s *DescribeStmt) String() string { return "DESCRIBE " + s.Table }
