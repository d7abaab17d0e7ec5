package sqlast

import (
	"sort"
	"strings"
)

// BaseTables returns the sorted, lower-cased names of every stored relation a
// query reads.
//
// It is the reference for a view's cache dependency set:
// TestViewRelationsCoverEveryPlan (internal/plan) checks that the relations
// a view tree's rules bind are exactly the tables every plan's SQL reads.
func BaseTables(q Query) []string {
	seen := make(map[string]struct{})
	collectQueryTables(q, seen)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// collectQueryTables walks a query adding base-table names to seen.
func collectQueryTables(q Query, seen map[string]struct{}) {
	switch q := q.(type) {
	case *Select:
		for _, te := range q.From {
			collectTableExpr(te, seen)
		}
	case *Union:
		for _, b := range q.Branches {
			collectQueryTables(b, seen)
		}
	}
}

func collectTableExpr(te TableExpr, seen map[string]struct{}) {
	switch te := te.(type) {
	case *BaseTable:
		seen[strings.ToLower(te.Name)] = struct{}{}
	case *Join:
		collectTableExpr(te.L, seen)
		collectTableExpr(te.R, seen)
	case *Derived:
		collectQueryTables(te.Query, seen)
	}
}
