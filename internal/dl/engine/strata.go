// Package engine evaluates checked Datalog programs fully incrementally.
//
// Relations hold Z-set contents (derivation-counted for non-recursive
// relations, presence-only for recursive ones). A transaction applies a
// set-level delta to the input relations and propagates it stratum by
// stratum:
//
//   - non-recursive strata use counting: each rule is differentiated into
//     one "seed plan" per body literal occurrence, evaluated against old/new
//     views of the other literals (the standard multilinear expansion), so
//     the work done is proportional to the delta, not the database;
//   - recursive strata delete by the Backward/Forward algorithm, which
//     removes a fact only when no proof of it is left (backward.go), and
//     insert semi-naively;
//   - group_by rules materialize their bodies into hidden relations and
//     re-aggregate only the affected groups.
//
// The central invariant — incremental evaluation produces exactly the same
// relation contents as recomputing from scratch — is enforced by property
// tests in this package.
package engine

import "fmt"

// depEdge is one dependency edge of the relation graph.
type depEdge struct {
	from, to int  // relation ids
	special  bool // negation or aggregation: must cross strata
}

// stratify computes SCCs of the relation dependency graph in topological
// order and validates stratification constraints.
//
// nodes is the number of relations; edges the dependencies (body → head).
// It returns, for each relation id, its stratum number, plus the list of
// strata, each a list of relation ids, and whether each stratum is
// recursive.
func stratify(nodes int, edges []depEdge) (stratumOf []int, strata [][]int, recursive []bool, err error) {
	adj := make([][]int, nodes)
	selfLoop := make([]bool, nodes)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
		if e.from == e.to {
			selfLoop[e.from] = true
		}
	}

	// Tarjan's strongly connected components, iterative to survive deep
	// graphs.
	const unvisited = -1
	index := make([]int, nodes)
	low := make([]int, nodes)
	onStack := make([]bool, nodes)
	comp := make([]int, nodes)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack, callStack []int
	var childIdx []int
	counter := 0
	var sccs [][]int

	for root := 0; root < nodes; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], root)
		childIdx = append(childIdx[:0], 0)
		index[root], low[root] = counter, counter
		counter++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			v := callStack[len(callStack)-1]
			if childIdx[len(childIdx)-1] < len(adj[v]) {
				w := adj[v][childIdx[len(childIdx)-1]]
				childIdx[len(childIdx)-1]++
				if index[w] == unvisited {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, w)
					childIdx = append(childIdx, 0)
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// Post-visit v.
			callStack = callStack[:len(callStack)-1]
			childIdx = childIdx[:len(childIdx)-1]
			if len(callStack) > 0 {
				p := callStack[len(callStack)-1]
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var scc []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(sccs)
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}

	// Tarjan emits SCCs in reverse topological order (an SCC is emitted
	// after everything it depends on... precisely: if a→b then comp(b) is
	// emitted no later than comp(a) only when traversal reaches b first).
	// Compute a topological order of the condensation explicitly to be safe.
	nscc := len(sccs)
	cAdj := make([][]int, nscc)
	inDeg := make([]int, nscc)
	seen := make(map[[2]int]bool)
	for _, e := range edges {
		a, b := comp[e.from], comp[e.to]
		if a == b {
			continue
		}
		k := [2]int{a, b}
		if seen[k] {
			continue
		}
		seen[k] = true
		cAdj[a] = append(cAdj[a], b)
		inDeg[b]++
	}
	var queue []int
	for i := 0; i < nscc; i++ {
		if inDeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]int, 0, nscc)
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		order = append(order, c)
		for _, d := range cAdj[c] {
			inDeg[d]--
			if inDeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != nscc {
		return nil, nil, nil, fmt.Errorf("engine: dependency graph has an unexpected cycle in its condensation")
	}

	stratumOf = make([]int, nodes)
	strata = make([][]int, nscc)
	recursive = make([]bool, nscc)
	for pos, c := range order {
		for _, rel := range sccs[c] {
			stratumOf[rel] = pos
		}
		strata[pos] = sccs[c]
		if len(sccs[c]) > 1 {
			recursive[pos] = true
		}
	}
	for i := 0; i < nodes; i++ {
		if selfLoop[i] {
			recursive[stratumOf[i]] = true
		}
	}
	// Special edges (negation, aggregation) must strictly increase strata.
	for _, e := range edges {
		if e.special && stratumOf[e.from] == stratumOf[e.to] {
			return nil, nil, nil, fmt.Errorf(
				"engine: program is not stratifiable: relation cycle through negation or aggregation")
		}
	}
	return stratumOf, strata, recursive, nil
}
