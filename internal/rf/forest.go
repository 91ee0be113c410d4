package rf

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// ForestConfig parameterizes random-forest training.
type ForestConfig struct {
	// Trees is the ensemble size (default 100).
	Trees int
	// MaxDepth bounds each tree (0 = unlimited).
	MaxDepth int
	// MinLeaf is the per-leaf minimum sample count (default 1).
	MinLeaf int
	// MTry is the per-split feature subsample; 0 selects sqrt(d).
	MTry int
	// UnderSampleRatio is the negatives-per-positive ratio after random
	// under-sampling of the majority class (SC'20's treatment of class
	// imbalance). 0 selects 1 (balanced).
	UnderSampleRatio float64
	// Seed drives bootstrap and feature sampling.
	Seed int64
}

// DefaultForestConfig returns the configuration used by the SC20-RF
// baseline in this repository.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{
		Trees:            100,
		MaxDepth:         12,
		MinLeaf:          1,
		UnderSampleRatio: 1,
		Seed:             1,
	}
}

// Forest is a bagged ensemble of CART trees.
//
// After training (or deserialization) the ensemble is additionally packed
// into one contiguous node array (see pack): PredictProb walks that flat
// array instead of chasing per-tree slices, which keeps the whole forest's
// nodes cache-resident on the replay hot path where one score is computed
// per decision tick.
type Forest struct {
	trees []*Tree

	// packed holds every tree's nodes back to back with child indices
	// rebased to the packed array; roots[i] is tree i's root index.
	packed []packedNode
	roots  []int32
}

// packedNode is the cache-friendly flat representation of one tree node:
// 32 bytes instead of the 40-byte training node, with absolute child
// indices so prediction never dereferences a tree.
type packedNode struct {
	threshold float64
	prob      float64
	// feature < 0 marks a leaf.
	feature     int32
	left, right int32
}

// pack flattens the ensemble into the contiguous prediction layout.
// Predictions over the packed array visit the same nodes in the same tree
// order as the per-tree walk, so scores are bit-identical.
func (f *Forest) pack() {
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	if total > math.MaxInt32 {
		// Absurdly large ensemble: keep the per-tree walk.
		f.packed, f.roots = nil, nil
		return
	}
	f.packed = make([]packedNode, 0, total)
	f.roots = make([]int32, len(f.trees))
	for ti, t := range f.trees {
		base := int32(len(f.packed))
		f.roots[ti] = base
		for _, n := range t.nodes {
			f.packed = append(f.packed, packedNode{
				threshold: n.threshold,
				prob:      n.prob,
				feature:   int32(n.feature),
				left:      base + int32(n.left),
				right:     base + int32(n.right),
			})
		}
	}
}

// TrainForest fits a random forest on X with binary labels y. Each tree is
// trained on a bootstrap of the positive class plus an under-sampled
// bootstrap of the negative class.
func TrainForest(x [][]float64, y []bool, cfg ForestConfig) *Forest {
	if len(x) == 0 || len(x) != len(y) {
		panic(fmt.Sprintf("rf: bad training set (%d samples, %d labels)", len(x), len(y)))
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	if cfg.UnderSampleRatio <= 0 {
		cfg.UnderSampleRatio = 1
	}
	d := len(x[0])
	mtry := cfg.MTry
	if mtry <= 0 {
		mtry = int(math.Sqrt(float64(d)))
		if mtry < 1 {
			mtry = 1
		}
	}
	var pos, neg []int
	for i, lbl := range y {
		if lbl {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng := mathx.NewRNG(cfg.Seed)
	f := &Forest{trees: make([]*Tree, cfg.Trees)}
	for t := 0; t < cfg.Trees; t++ {
		trng := rng.Fork()
		var xi [][]float64
		var yi []bool
		switch {
		case len(pos) == 0 || len(neg) == 0:
			// Degenerate single-class data: bootstrap everything.
			for k := 0; k < len(x); k++ {
				i := trng.Intn(len(x))
				xi = append(xi, x[i])
				yi = append(yi, y[i])
			}
		default:
			nPos := len(pos)
			nNeg := int(float64(nPos)*cfg.UnderSampleRatio + 0.5)
			if nNeg < 1 {
				nNeg = 1
			}
			if nNeg > len(neg) {
				nNeg = len(neg)
			}
			for k := 0; k < nPos; k++ {
				xi = append(xi, x[pos[trng.Intn(len(pos))]])
				yi = append(yi, true)
			}
			for k := 0; k < nNeg; k++ {
				xi = append(xi, x[neg[trng.Intn(len(neg))]])
				yi = append(yi, false)
			}
		}
		f.trees[t] = TrainTree(xi, yi, TreeConfig{
			MaxDepth: cfg.MaxDepth, MinLeaf: cfg.MinLeaf, MTry: mtry,
		}, trng)
	}
	f.pack()
	return f
}

// PredictProb returns the mean positive-class probability across trees —
// "a value from 0 to 1 that represents the probability of an uncorrected
// error" (§4.2). As the paper observes for Myopic-RF, it is a score, not a
// calibrated probability.
func (f *Forest) PredictProb(x []float64) float64 {
	if len(f.roots) > 0 {
		sum := 0.0
		packed := f.packed
		for _, root := range f.roots {
			i := root
			for {
				nd := &packed[i]
				if nd.feature < 0 {
					sum += nd.prob
					break
				}
				if x[nd.feature] <= nd.threshold {
					i = nd.left
				} else {
					i = nd.right
				}
			}
		}
		return sum / float64(len(f.roots))
	}
	if len(f.trees) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range f.trees {
		sum += t.PredictProb(x)
	}
	return sum / float64(len(f.trees))
}
