package main

import "fmt"

// The output checks below share no code with the pipelines they check:
// each walks the adjacency edge by edge.

// checkProper verifies that colors is a proper coloring of the graph whose
// adjacency nbrs gives, with every color in [0, k).
func checkProper(n int, nbrs func(v int) []int32, colors []int, k int) error {
	if len(colors) != n {
		return fmt.Errorf("%d colors for %d vertices", len(colors), n)
	}
	for v := 0; v < n; v++ {
		c := colors[v]
		if c < 0 || c >= k {
			return fmt.Errorf("vertex %d has color %d outside [0, %d)", v, c, k)
		}
		for _, w := range nbrs(v) {
			if colors[w] == c {
				return fmt.Errorf("edge (%d,%d) monochromatic %d", v, w, c)
			}
		}
	}
	return nil
}

// maxDegree is the largest adjacency length.
func maxDegree(n int, nbrs func(v int) []int32) int {
	d := 0
	for v := 0; v < n; v++ {
		if l := len(nbrs(v)); l > d {
			d = l
		}
	}
	return d
}

// sameColors reports the first index where two colorings differ.
func sameColors(got, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d colors, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("vertex %d has color %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
