package cfg

import "sort"

// Condensation is the SCC DAG of the call graph restricted to a name
// set: the strongly connected components in reverse topological order
// (callees before callers) plus the inter-component dependency edges.
// Sibling components have no ordering constraint between them, which is
// what lets the bottom-up interprocedural pass run them concurrently.
type Condensation struct {
	// Comps lists the components in reverse topological order; each
	// component's function names are sorted. Every dependency of Comps[i]
	// has an index smaller than i.
	Comps [][]string
	// CompOf maps a function name to its component index.
	CompOf map[string]int
	// Callers[i] lists the components containing callers of component i —
	// the components whose in-degree drops when i completes. Sorted,
	// deduplicated, self-edges excluded.
	Callers [][]int
	// NumDeps[i] is the number of distinct callee components component i
	// depends on (its in-degree in the bottom-up schedule; 0 means ready
	// immediately).
	NumDeps []int
}

// Condense computes the call graph's SCC condensation restricted to the
// given function names. Functions absent from names are ignored, exactly
// as SCC does.
func (p *Program) Condense(names []string) *Condensation {
	comps := p.SCC(names)
	c := &Condensation{
		Comps:   comps,
		CompOf:  make(map[string]int, len(names)),
		Callers: make([][]int, len(comps)),
		NumDeps: make([]int, len(comps)),
	}
	for i, comp := range comps {
		for _, n := range comp {
			c.CompOf[n] = i
		}
	}
	// dependedBy[j] == i+1 once component i has counted callee component j.
	dependedBy := make([]int, len(comps))
	for i, comp := range comps {
		for _, fn := range comp {
			for _, callee := range p.Callees[fn] {
				j, ok := c.CompOf[callee]
				if !ok || j == i || dependedBy[j] == i+1 {
					continue
				}
				// Component i depends on its callee component j.
				dependedBy[j] = i + 1
				c.Callers[j] = append(c.Callers[j], i)
				c.NumDeps[i]++
			}
		}
	}
	for i := range c.Callers {
		sort.Ints(c.Callers[i])
	}
	return c
}

// CriticalPath returns the number of components on the longest dependency
// chain of the condensation — the minimum number of sequential bottom-up
// steps any schedule needs, and therefore the parallelism ceiling
// (len(Comps) / CriticalPath approximates the achievable speedup).
func (c *Condensation) CriticalPath() int {
	if len(c.Comps) == 0 {
		return 0
	}
	depth := make([]int, len(c.Comps))
	longest := 1
	for i := range c.Comps {
		depth[i]++ // the component itself
		if depth[i] > longest {
			longest = depth[i]
		}
		// Comps is reverse-topological, so every caller of i has a larger
		// index and its depth is still being accumulated.
		for _, caller := range c.Callers[i] {
			if depth[i] > depth[caller] {
				depth[caller] = depth[i]
			}
		}
	}
	return longest
}
