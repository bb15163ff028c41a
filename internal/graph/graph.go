// Package graph provides the problem graphs used by the paper's evaluation:
// random 3-regular graphs (MaxCut), two-dimensional mesh graphs (MaxCut on
// Sycamore-style hardware graphs), and complete weighted graphs
// (Sherrington-Kirkpatrick model).
package graph

import (
	"fmt"
	"math/rand"
)

// Edge is an undirected weighted edge between vertices U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a simple undirected weighted graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges []Edge
}

// Degree returns the per-vertex degrees.
func (g *Graph) Degree() []int {
	deg := make([]int, g.N)
	for _, e := range g.Edges {
		deg[e.U]++
		deg[e.V]++
	}
	return deg
}

// CutValue evaluates the weighted cut of the ±1 assignment. assignment[i]
// must be 0 or 1; an edge contributes its weight when its endpoints differ.
func (g *Graph) CutValue(assignment []int) float64 {
	var cut float64
	for _, e := range g.Edges {
		if assignment[e.U] != assignment[e.V] {
			cut += e.Weight
		}
	}
	return cut
}

// MaxCutBrute computes the exact MaxCut value by exhaustive search. It is
// exponential in N and intended for tests and for normalizing approximation
// ratios on small instances (N <= ~24).
func (g *Graph) MaxCutBrute() float64 {
	if g.N > 30 {
		panic(fmt.Sprintf("graph: MaxCutBrute on %d vertices", g.N))
	}
	best := 0.0
	assign := make([]int, g.N)
	for mask := 0; mask < 1<<uint(g.N-1); mask++ { // fix vertex N-1 = 0 (symmetry)
		for i := 0; i < g.N-1; i++ {
			assign[i] = (mask >> uint(i)) & 1
		}
		assign[g.N-1] = 0
		if c := g.CutValue(assign); c > best {
			best = c
		}
	}
	return best
}

// Random3Regular generates a random 3-regular simple graph on n vertices
// (n must be even and >= 4) by pairing half-edge stubs and retrying on
// collisions, the standard configuration-model construction.
func Random3Regular(n int, rng *rand.Rand) (*Graph, error) {
	return RandomRegular(n, 3, rng)
}

// RandomRegular generates a random d-regular simple graph via the
// configuration model with restarts.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: n*d must be even, got n=%d d=%d", n, d)
	}
	if d >= n {
		return nil, fmt.Errorf("graph: degree %d too large for %d vertices", d, n)
	}
	if d < 1 {
		return nil, fmt.Errorf("graph: degree %d < 1", d)
	}
	for attempt := 0; attempt < 2000; attempt++ {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for k := 0; k < d; k++ {
				stubs = append(stubs, v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		seen := make(map[[2]int]bool, n*d/2)
		edges := make([]Edge, 0, n*d/2)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v {
				ok = false
				break
			}
			if u > v {
				u, v = v, u
			}
			key := [2]int{u, v}
			if seen[key] {
				ok = false
				break
			}
			seen[key] = true
			edges = append(edges, Edge{U: u, V: v, Weight: 1})
		}
		if ok {
			return &Graph{N: n, Edges: edges}, nil
		}
	}
	return nil, fmt.Errorf("graph: failed to build %d-regular graph on %d vertices", d, n)
}

// Mesh builds a rows×cols 2-D grid (mesh) graph with unit weights, the
// hardware-native topology used in the Google Sycamore QAOA dataset.
func Mesh(rows, cols int) (*Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("graph: invalid mesh %dx%d", rows, cols)
	}
	g := &Graph{N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.Edges = append(g.Edges, Edge{U: id(r, c), V: id(r, c+1), Weight: 1})
			}
			if r+1 < rows {
				g.Edges = append(g.Edges, Edge{U: id(r, c), V: id(r+1, c), Weight: 1})
			}
		}
	}
	return g, nil
}

// SK builds a Sherrington-Kirkpatrick instance: a complete graph on n
// vertices with i.i.d. ±1 couplings (the discrete SK ensemble used in the
// Google dataset).
func SK(n int, rng *rand.Rand) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: SK needs >= 2 vertices, got %d", n)
	}
	g := &Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			w := 1.0
			if rng.Intn(2) == 0 {
				w = -1.0
			}
			g.Edges = append(g.Edges, Edge{U: u, V: v, Weight: w})
		}
	}
	return g, nil
}

// Ring builds the n-cycle, a handy small regular test graph.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs >= 3 vertices, got %d", n)
	}
	g := &Graph{N: n}
	for i := 0; i < n; i++ {
		u, v := i, (i+1)%n
		if u > v {
			u, v = v, u
		}
		g.Edges = append(g.Edges, Edge{U: u, V: v, Weight: 1})
	}
	return g, nil
}

// Complete builds the unweighted complete graph K_n.
func Complete(n int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graph: complete graph needs >= 2 vertices, got %d", n)
	}
	g := &Graph{N: n}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.Edges = append(g.Edges, Edge{U: u, V: v, Weight: 1})
		}
	}
	return g, nil
}
