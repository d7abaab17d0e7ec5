package plan

import (
	"silkroute/internal/schema"
	"silkroute/internal/sqlgen"
	"silkroute/internal/viewtree"
)

// Permissible reports whether the plan can execute on a target database
// with the given SQL capabilities (§3.4: "all SQL engines do not
// necessarily support all these constructs... SilkRoute chooses
// permissible plans based on the source description").
//
// A fully partitioned plan needs none of the optional constructs. A kept
// edge that is not guaranteed ('?' or '*') needs LEFT OUTER JOIN. A group
// with two or more child branches needs the outer union.
func (p *Plan) Permissible(caps schema.Capabilities) (bool, error) {
	comps, err := p.Tree.Partition(p.Keep, p.Reduce)
	if err != nil {
		return false, err
	}
	for _, c := range comps {
		for _, g := range c.Groups {
			if len(g.Children) == 0 {
				continue
			}
			if len(g.Children) > 1 && !caps.OuterUnion {
				return false, nil
			}
			needsOuter := false
			for _, ge := range g.Children {
				if !ge.Label.AtLeastOne() {
					needsOuter = true
				}
			}
			if needsOuter && !caps.LeftOuterJoin {
				return false, nil
			}
		}
	}
	if p.Style == sqlgen.OuterUnion && !caps.OuterUnion {
		// The [9]-style generator unions one branch per leaf chain.
		leafChains := 0
		for _, c := range comps {
			leafChains = max(leafChains, countLeaves(c.Root))
		}
		if leafChains > 1 {
			return false, nil
		}
	}
	return true, nil
}

func countLeaves(g *viewtree.Group) int {
	if len(g.Children) == 0 {
		return 1
	}
	n := 0
	for _, ge := range g.Children {
		n += countLeaves(ge.Child)
	}
	return n
}

// BestPermissible returns the member of the plan family of a finished
// greedy search res that the target's capabilities permit, falling back to
// the fully partitioned plan — which is always permissible. It runs no
// search of its own.
func BestPermissible(res *GreedyResult, t *viewtree.Tree, caps schema.Capabilities) (*Plan, error) {
	// Prefer family members with the most kept edges (fewest streams).
	family := res.Plans(t)
	best := FullyPartitioned(t)
	bestKept := -1
	candidates := append(family, res.BestPlan(t))
	for _, p := range candidates {
		ok, err := p.Permissible(caps)
		if err != nil {
			return nil, err
		}
		if ok && p.KeptEdges() > bestKept {
			best = p
			bestKept = p.KeptEdges()
		}
	}
	return best, nil
}
