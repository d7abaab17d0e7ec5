package schema

import (
	"slices"
	"strings"
)

// Functional-dependency reasoning. The paper (§3.5) notes that implication
// of mixed functional + inclusion dependencies is undecidable [Abiteboul,
// Hull, Vianu], so SilkRoute deliberately checks FD implication alone,
// which the Beeri–Bernstein membership algorithm decides in linear time.
// This file implements that closure over attribute sets qualified by tuple
// variable (so the same relation scanned twice contributes independent
// copies of its FDs).

// QualifiedFD is a functional dependency over qualified attributes such as
// "s.suppkey" — the form view-tree rules work with after tuple variables
// have been bound to relations.
type QualifiedFD struct {
	From []string
	To   []string
}

// Closure computes the attribute closure of start under fds: the set of all
// qualified attributes functionally determined by start. The implementation
// is the textbook linear-time membership algorithm: keep a per-FD counter
// of unsatisfied left-hand attributes and a worklist of newly-derived
// attributes. The FDs whose left-hand side holds an attribute are a linked
// list through one slice, so the allocations do not grow with the FDs.
func Closure(start []string, fds []QualifiedFD) map[string]bool {
	size, lhs := len(start), 0
	for _, fd := range fds {
		size += len(fd.To)
		lhs += len(fd.From)
	}
	closed := make(map[string]bool, size)
	work := make([]string, 0, size)
	add := func(a string) {
		a = strings.ToLower(a)
		if !closed[a] {
			closed[a] = true
			work = append(work, a)
		}
	}
	for _, a := range start {
		add(a)
	}

	// first[attr] is the first left-hand-side occurrence of attr; for an
	// occurrence o, fdOf[o] is its FD and next[o] the attribute's next
	// occurrence, -1 after the last. missing[i] counts FD i's left-hand
	// attributes not yet derived.
	first := make(map[string]int, lhs)
	links := make([]int, 2*lhs+len(fds))
	fdOf, next, missing := links[:lhs], links[lhs:2*lhs], links[2*lhs:]
	o := 0
	for i, fd := range fds {
		for j, a := range fd.From {
			la := strings.ToLower(a)
			if slices.ContainsFunc(fd.From[:j], func(b string) bool { return strings.ToLower(b) == la }) {
				continue
			}
			fdOf[o], next[o] = i, -1
			if h, ok := first[la]; ok {
				next[o] = h
			}
			first[la] = o
			o++
			missing[i]++
		}
		// Initial attributes are already on the worklist and will decrement
		// these counters as they are processed; do not pre-count them here.
		if missing[i] == 0 {
			for _, b := range fd.To {
				add(b)
			}
		}
	}

	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		o, ok := first[a]
		for ; ok && o >= 0; o = next[o] {
			i := fdOf[o]
			missing[i]--
			if missing[i] == 0 {
				for _, b := range fds[i].To {
					add(b)
				}
			}
		}
	}
	return closed
}

// Implies reports whether fds imply the dependency from → to, via closure
// membership.
func Implies(fds []QualifiedFD, from, to []string) bool {
	closed := Closure(from, fds)
	for _, a := range to {
		if !closed[strings.ToLower(a)] {
			return false
		}
	}
	return true
}

// BruteClosure is an O(n²·|fds|) reference implementation of Closure used
// by property tests to validate the linear-time algorithm.
func BruteClosure(start []string, fds []QualifiedFD) map[string]bool {
	closed := make(map[string]bool)
	for _, a := range start {
		closed[strings.ToLower(a)] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fd := range fds {
			all := true
			for _, a := range fd.From {
				if !closed[strings.ToLower(a)] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			for _, b := range fd.To {
				lb := strings.ToLower(b)
				if !closed[lb] {
					closed[lb] = true
					changed = true
				}
			}
		}
	}
	return closed
}
