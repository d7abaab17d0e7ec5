package sqlast

import (
	"sort"
	"strings"
)

// BaseTables returns the sorted, lower-cased names of every stored relation a
// query reads. CTE names introduced by a WITH clause are not stored relations
// and are excluded; a CTE's body may itself reference earlier CTEs (they bind
// progressively, left to right), so those references are excluded too.
//
// It is the reference for a view's cache dependency set:
// TestViewRelationsCoverEveryPlan (internal/plan) checks that the relations
// a view tree's rules bind are exactly the tables every plan's SQL reads.
func BaseTables(q Query) []string {
	seen := make(map[string]struct{})
	collectQueryTables(q, nil, seen)
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// collectQueryTables walks a query adding base-table names to seen. bound
// holds the CTE names visible at this point (lower-cased).
func collectQueryTables(q Query, bound map[string]struct{}, seen map[string]struct{}) {
	switch q := q.(type) {
	case *Select:
		for _, te := range q.From {
			collectTableExpr(te, bound, seen)
		}
	case *Union:
		for _, b := range q.Branches {
			collectQueryTables(b, bound, seen)
		}
	case *With:
		// Each CTE sees the names bound before it; the body sees them all.
		inner := make(map[string]struct{}, len(bound)+len(q.CTEs))
		for name := range bound {
			inner[name] = struct{}{}
		}
		for _, cte := range q.CTEs {
			collectQueryTables(cte.Query, inner, seen)
			inner[strings.ToLower(cte.Name)] = struct{}{}
		}
		collectQueryTables(q.Body, inner, seen)
	}
}

func collectTableExpr(te TableExpr, bound map[string]struct{}, seen map[string]struct{}) {
	switch te := te.(type) {
	case *BaseTable:
		name := strings.ToLower(te.Name)
		if _, isCTE := bound[name]; !isCTE {
			seen[name] = struct{}{}
		}
	case *Join:
		collectTableExpr(te.L, bound, seen)
		collectTableExpr(te.R, bound, seen)
	case *Derived:
		collectQueryTables(te.Query, bound, seen)
	}
}
