// Package rf implements the SC20-RF baseline of Boixaderas et al. (SC'20):
// CART decision trees with Gini impurity, bagged into a random forest with
// random under-sampling of the majority class — the configuration the SC'20
// study found best for UE prediction — plus the threshold machinery used by
// the SC20-RF and Myopic-RF policies of §4.2.
package rf

import (
	"fmt"
	"sort"

	"repro/internal/mathx"
)

// TreeConfig parameterizes CART training.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (default 1).
	MinLeaf int
	// MTry is the number of random features considered per split; 0 means
	// all features (sqrt(d) is set by the forest).
	MTry int
}

// node is one tree node in a flat array representation.
type node struct {
	// feature < 0 marks a leaf.
	feature   int
	threshold float64
	left      int // index of left child (x[feature] <= threshold)
	right     int
	// prob is the positive-class fraction at a leaf.
	prob float64
}

// Tree is a trained CART classifier returning positive-class probabilities.
type Tree struct {
	nodes []node
}

// TrainTree fits a CART tree on X (n×d) with binary labels y. rng drives
// the per-split feature subsampling.
func TrainTree(x [][]float64, y []bool, cfg TreeConfig, rng *mathx.RNG) *Tree {
	if len(x) == 0 || len(x) != len(y) {
		panic(fmt.Sprintf("rf: bad training set (%d samples, %d labels)", len(x), len(y)))
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 1
	}
	t := &Tree{}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.build(x, y, idx, cfg, rng, 0)
	return t
}

// build grows the subtree over the sample indices idx and returns its node
// index.
func (t *Tree) build(x [][]float64, y []bool, idx []int, cfg TreeConfig, rng *mathx.RNG, depth int) int {
	pos := 0
	for _, i := range idx {
		if y[i] {
			pos++
		}
	}
	leaf := func() int {
		t.nodes = append(t.nodes, node{feature: -1, prob: float64(pos) / float64(len(idx))})
		return len(t.nodes) - 1
	}
	if pos == 0 || pos == len(idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		len(idx) < 2*cfg.MinLeaf {
		return leaf()
	}
	feat, thr, ok := bestSplit(x, y, idx, cfg, rng)
	if !ok {
		return leaf()
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.MinLeaf || len(right) < cfg.MinLeaf {
		return leaf()
	}
	// Reserve this node, then build children.
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{feature: feat, threshold: thr})
	l := t.build(x, y, left, cfg, rng, depth+1)
	r := t.build(x, y, right, cfg, rng, depth+1)
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// bestSplit scans a random subset of features for the split minimizing
// weighted Gini impurity.
func bestSplit(x [][]float64, y []bool, idx []int, cfg TreeConfig, rng *mathx.RNG) (feat int, thr float64, ok bool) {
	d := len(x[0])
	mtry := cfg.MTry
	if mtry <= 0 || mtry > d {
		mtry = d
	}
	feats := rng.Perm(d)[:mtry]

	type pair struct {
		v   float64
		pos bool
	}
	best := 2.0 // gini is <= 0.5 per side; weighted sum <= 0.5
	pairs := make([]pair, len(idx))
	for _, f := range feats {
		for k, i := range idx {
			pairs[k] = pair{v: x[i][f], pos: y[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })
		totalPos := 0
		for _, p := range pairs {
			if p.pos {
				totalPos++
			}
		}
		n := len(pairs)
		leftPos := 0
		for k := 0; k < n-1; k++ {
			if pairs[k].pos {
				leftPos++
			}
			if pairs[k].v == pairs[k+1].v {
				continue // can't split between equal values
			}
			nl := k + 1
			nr := n - nl
			gl := gini(leftPos, nl)
			gr := gini(totalPos-leftPos, nr)
			g := (float64(nl)*gl + float64(nr)*gr) / float64(n)
			if g < best {
				best = g
				feat = f
				thr = (pairs[k].v + pairs[k+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// gini returns the Gini impurity of a node with pos positives out of n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// PredictProb returns the positive-class probability for one sample.
func (t *Tree) PredictProb(x []float64) float64 {
	i := 0
	for {
		nd := t.nodes[i]
		if nd.feature < 0 {
			return nd.prob
		}
		if x[nd.feature] <= nd.threshold {
			i = nd.left
		} else {
			i = nd.right
		}
	}
}
