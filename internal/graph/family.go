package graph

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Families lists the graph-family names MakeFamily accepts, in
// presentation order, for CLI help and error text.
var Families = []string{
	"forests", "ring", "ringshuffled", "path", "star", "starforest",
	"bintree", "tree", "grid", "trigrid", "gnm", "clique", "cliqueforest",
	"hypercube", "caterpillar", "karytree",
}

// MakeFamily constructs a graph family by its CLI name. It is the single
// construction path shared by graphgen, vavgrun, and vavggraph, so every
// tool derives the same graph from the same (family, n, a, seed) triple —
// which is what makes a materialized CSR file interchangeable with its
// generator. The density parameter a feeds the families that take one
// (forest count, gnm edge factor, star and clique sizes); the others
// ignore it. Arguments CheckFamily rejects are an error.
func MakeFamily(family string, n, a int, seed int64) (*Graph, error) {
	if err := CheckFamily(family, n, a); err != nil {
		return nil, err
	}
	switch family {
	case "forests":
		return ForestUnion(n, a, seed), nil
	case "ring":
		return Ring(n), nil
	case "ringshuffled":
		return RingShuffled(n, seed), nil
	case "path":
		return Path(n), nil
	case "star":
		return Star(n), nil
	case "starforest":
		return StarForest(n, 8*a), nil
	case "bintree":
		return CompleteBinaryTree(n), nil
	case "tree":
		return RandomTree(n, seed), nil
	case "grid":
		s := gridSide(n)
		return Grid(s, s), nil
	case "trigrid":
		s := gridSide(n)
		return TriangulatedGrid(s, s), nil
	case "gnm":
		return Gnm(n, a*n, seed), nil
	case "clique":
		return Clique(n), nil
	case "cliqueforest":
		return CliquePlusForest(n, 4*a, seed), nil
	case "hypercube":
		d := 1
		for 1<<d < n {
			d++
		}
		return Hypercube(d), nil
	case "caterpillar":
		return Caterpillar(n), nil
	case "karytree":
		k := a
		if k < 2 {
			k = 2
		}
		return KaryTree(n, k), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q (families: %v)", family, Families)
	}
}

// densityFamilies are the families whose shape MakeFamily derives from a.
var densityFamilies = map[string]bool{"forests": true, "starforest": true, "gnm": true, "cliqueforest": true}

// CheckFamily reports, without building anything, whether MakeFamily
// accepts (family, n, a): a known family name, n >= 1, and a >= 1 for
// the families that take a density.
func CheckFamily(family string, n, a int) error {
	if !slices.Contains(Families, family) {
		return fmt.Errorf("unknown graph family %q (families: %s)", family, strings.Join(Families, ", "))
	}
	if n < 1 {
		return fmt.Errorf("graph family %q: n = %d, want n >= 1", family, n)
	}
	if a < 1 && densityFamilies[family] {
		return fmt.Errorf("graph family %q: a = %d, want a >= 1", family, a)
	}
	return nil
}

func gridSide(n int) int {
	s := int(math.Sqrt(float64(n)))
	if s < 2 {
		return 2
	}
	return s
}
