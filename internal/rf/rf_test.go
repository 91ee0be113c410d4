package rf

import (
	"testing"

	"repro/internal/mathx"
)

// axisData builds a linearly separable problem: positive iff x[0] > 0.5.
func axisData(n int, seed int64) ([][]float64, []bool) {
	rng := mathx.NewRNG(seed)
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		y[i] = x[i][0] > 0.5
	}
	return x, y
}

func TestTreeLearnsAxisSplit(t *testing.T) {
	x, y := axisData(400, 1)
	tree := TrainTree(x, y, TreeConfig{MaxDepth: 4}, mathx.NewRNG(2))
	correct := 0
	probe, labels := axisData(200, 3)
	for i := range probe {
		pred := tree.PredictProb(probe[i]) > 0.5
		if pred == labels[i] {
			correct++
		}
	}
	if correct < 190 {
		t.Fatalf("tree accuracy %d/200", correct)
	}
}

func TestTreePureLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []bool{true, true, true}
	tree := TrainTree(x, y, TreeConfig{}, mathx.NewRNG(1))
	if got := tree.PredictProb([]float64{9}); got != 1 {
		t.Fatalf("pure-positive prob = %v", got)
	}
	if treeDepth(tree) != 0 {
		t.Fatalf("pure leaf depth %d", treeDepth(tree))
	}
}

func TestTreeMaxDepthRespected(t *testing.T) {
	x, y := axisData(500, 5)
	tree := TrainTree(x, y, TreeConfig{MaxDepth: 2}, mathx.NewRNG(1))
	if treeDepth(tree) > 2 {
		t.Fatalf("depth %d exceeds MaxDepth 2", treeDepth(tree))
	}
}

func TestTreeXORNeedsDepth(t *testing.T) {
	// XOR of two binary features: a depth-1 stump cannot separate it, a
	// depth-2 tree can.
	var x [][]float64
	var y []bool
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for k := 0; k < 25; k++ {
				x = append(x, []float64{float64(a), float64(b)})
				y = append(y, a != b)
			}
		}
	}
	deep := TrainTree(x, y, TreeConfig{MaxDepth: 3}, mathx.NewRNG(1))
	for i := range x {
		if (deep.PredictProb(x[i]) > 0.5) != y[i] {
			t.Fatalf("deep tree failed XOR at %v", x[i])
		}
	}
}

func TestTreeConstantFeaturesBecomeLeaf(t *testing.T) {
	x := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	y := []bool{true, false, true, false}
	tree := TrainTree(x, y, TreeConfig{}, mathx.NewRNG(1))
	if got := tree.PredictProb([]float64{1, 1}); got != 0.5 {
		t.Fatalf("unsplittable data prob = %v, want 0.5", got)
	}
}

func TestTrainTreePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TrainTree(nil, nil, TreeConfig{}, mathx.NewRNG(1))
}

func TestForestLearnsAxisSplit(t *testing.T) {
	x, y := axisData(400, 7)
	f := TrainForest(x, y, ForestConfig{Trees: 30, MaxDepth: 6, Seed: 1})
	probe, labels := axisData(200, 8)
	correct := 0
	for i := range probe {
		if (f.PredictProb(probe[i]) > 0.5) == labels[i] {
			correct++
		}
	}
	if correct < 185 {
		t.Fatalf("forest accuracy %d/200", correct)
	}
	if len(f.trees) != 30 {
		t.Fatalf("%d trees", len(f.trees))
	}
}

func TestForestDeterministic(t *testing.T) {
	x, y := axisData(200, 9)
	cfg := ForestConfig{Trees: 10, MaxDepth: 4, Seed: 3}
	a := TrainForest(x, y, cfg)
	b := TrainForest(x, y, cfg)
	probe, _ := axisData(50, 10)
	for i := range probe {
		if a.PredictProb(probe[i]) != b.PredictProb(probe[i]) {
			t.Fatal("forest training not deterministic")
		}
	}
}

func TestForestImbalancedRecall(t *testing.T) {
	// 2% positive class, clearly separated: under-sampling must keep the
	// positives visible, giving high scores on positive-like points.
	rng := mathx.NewRNG(11)
	var x [][]float64
	var y []bool
	for i := 0; i < 2000; i++ {
		pos := rng.Bool(0.02)
		base := 0.0
		if pos {
			base = 5
		}
		x = append(x, []float64{base + rng.NormFloat64(), rng.NormFloat64()})
		y = append(y, pos)
	}
	f := TrainForest(x, y, ForestConfig{Trees: 40, MaxDepth: 6, UnderSampleRatio: 1, Seed: 2})
	if p := f.PredictProb([]float64{5, 0}); p < 0.7 {
		t.Fatalf("positive-region score %v too low despite under-sampling", p)
	}
	if p := f.PredictProb([]float64{0, 0}); p > 0.3 {
		t.Fatalf("negative-region score %v too high", p)
	}
}

func TestForestSingleClassDegenerate(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []bool{false, false, false}
	f := TrainForest(x, y, ForestConfig{Trees: 5, Seed: 1})
	if p := f.PredictProb([]float64{2}); p != 0 {
		t.Fatalf("all-negative forest prob = %v", p)
	}
}

func TestForestProbabilityRange(t *testing.T) {
	x, y := axisData(300, 13)
	f := TrainForest(x, y, ForestConfig{Trees: 20, MaxDepth: 3, Seed: 4})
	probe, _ := axisData(100, 14)
	for i := range probe {
		p := f.PredictProb(probe[i])
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of range", p)
		}
	}
}

// TestPackedPredictionMatchesTreeWalk: the contiguous packed layout must
// reproduce the per-tree walk bit for bit, including after a
// serialization round trip (which rebuilds the packing).
func TestPackedPredictionMatchesTreeWalk(t *testing.T) {
	x, y := axisData(400, 21)
	f := TrainForest(x, y, ForestConfig{Trees: 30, MaxDepth: 8, Seed: 3})
	if len(f.packed) == 0 || len(f.roots) != len(f.trees) {
		t.Fatal("forest not packed after training")
	}
	perTree := func(x []float64) float64 {
		sum := 0.0
		for _, tr := range f.trees {
			sum += tr.PredictProb(x)
		}
		return sum / float64(len(f.trees))
	}
	probe, _ := axisData(200, 22)
	for i := range probe {
		if got, want := f.PredictProb(probe[i]), perTree(probe[i]); got != want {
			t.Fatalf("probe %d: packed %v != per-tree %v", i, got, want)
		}
	}

	data, err := f.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var g Forest
	if err := g.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if len(g.packed) != len(f.packed) {
		t.Fatal("deserialized forest not repacked")
	}
	for i := range probe {
		if g.PredictProb(probe[i]) != f.PredictProb(probe[i]) {
			t.Fatalf("probe %d: round-tripped prediction differs", i)
		}
	}
}

// treeDepth returns the maximum depth of the tree (a single leaf has depth 0).
func treeDepth(t *Tree) int {
	var walk func(i int) int
	walk = func(i int) int {
		nd := t.nodes[i]
		if nd.feature < 0 {
			return 0
		}
		l, r := walk(nd.left), walk(nd.right)
		if r > l {
			l = r
		}
		return l + 1
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0)
}
