package gnn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"heterog/internal/nn"
)

func smallInputs(rng *rand.Rand, n, inDim, groups int) (*nn.Matrix, [][]int, [][]int) {
	feats := nn.NewMatrix(n, inDim)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i - 1, i})
	}
	neighbors := Neighborhoods(n, edges)
	members := make([][]int, groups)
	for i := 0; i < n; i++ {
		members[i%groups] = append(members[i%groups], i)
	}
	return feats, neighbors, members
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{}, rng); err == nil {
		t.Fatal("zero config must error")
	}
	g, err := New(DefaultConfig(12), rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Layers) != DefaultConfig(12).Layers {
		t.Fatalf("layer count %d", len(g.Layers))
	}
	if g.InDim != 12 {
		t.Fatalf("InDim %d", g.InDim)
	}
}

func TestForwardShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultConfig(6)
	g, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	feats, neighbors, members := smallInputs(rng, 15, 6, 4)
	tp := nn.NewTape()
	var params []*nn.Node
	out, err := g.Forward(tp, feats, neighbors, members, &params)
	if err != nil {
		t.Fatal(err)
	}
	if out.Value.Rows != 4 || out.Value.Cols != cfg.OutDim {
		t.Fatalf("output %dx%d, want 4x%d", out.Value.Rows, out.Value.Cols, cfg.OutDim)
	}
	wantParams := cfg.Layers*cfg.Heads*3 + 1
	if len(params) != wantParams {
		t.Fatalf("registered %d params, want %d", len(params), wantParams)
	}
}

func TestForwardShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := New(DefaultConfig(6), rng)
	if err != nil {
		t.Fatal(err)
	}
	feats, neighbors, members := smallInputs(rng, 10, 6, 3)
	tp := nn.NewTape()
	var params []*nn.Node
	if _, err := g.Forward(tp, feats, neighbors[:5], members, &params); err == nil {
		t.Fatal("short neighbour list must error")
	}
	for _, bad := range [][][]int{{{0, 10}}, {{-1}}, {{4, 2}}, {{3, 3}}} {
		if _, err := g.Forward(tp, feats, neighbors, bad, &params); err == nil {
			t.Fatalf("members %v must error: out of range or not strictly ascending", bad)
		}
	}
	badFeats := nn.NewMatrix(10, 2)
	if _, err := g.Forward(tp, badFeats, neighbors, members, &params); err == nil {
		t.Fatal("bad feature width must error")
	}
}

func TestGradientsFlowToAllParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := New(Config{InDim: 5, HiddenDim: 4, OutDim: 6, Layers: 2, Heads: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	feats, neighbors, members := smallInputs(rng, 12, 5, 3)
	tp := nn.NewTape()
	var params []*nn.Node
	out, err := g.Forward(tp, feats, neighbors, members, &params)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Backward(tp.Sum(out)); err != nil {
		t.Fatal(err)
	}
	for i, p := range params {
		var norm float64
		for _, v := range p.Grad.Data {
			norm += v * v
		}
		if norm == 0 {
			t.Fatalf("parameter %d received no gradient", i)
		}
	}
}

func TestNeighborhoodsSelfInclusive(t *testing.T) {
	nb := Neighborhoods(3, [][2]int{{0, 1}, {1, 2}})
	if nb[0][0] != 0 || nb[1][0] != 1 || nb[2][0] != 2 {
		t.Fatal("neighbour lists must start with the node itself")
	}
	// Edges are symmetric: 0<->1 and 1<->2.
	if len(nb[1]) != 3 {
		t.Fatalf("node 1 has %d neighbours, want 3 (self + both sides)", len(nb[1]))
	}
}

func TestMessagePassingRespectsGraphStructure(t *testing.T) {
	// Two disconnected components: perturbing a node in one component must
	// not change the other component's embeddings.
	rng := rand.New(rand.NewSource(5))
	cfg := Config{InDim: 4, HiddenDim: 4, OutDim: 4, Layers: 1, Heads: 1}
	g, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := 6
	feats := nn.NewMatrix(n, 4)
	for i := range feats.Data {
		feats.Data[i] = rng.NormFloat64()
	}
	neighbors := Neighborhoods(n, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	members := [][]int{{0}, {3}} // group 0 = node 0 (component A), group 1 = node 3 (component B)
	run := func() *nn.Matrix {
		tp := nn.NewTape()
		var params []*nn.Node
		out, err := g.Forward(tp, feats, neighbors, members, &params)
		if err != nil {
			t.Fatal(err)
		}
		return out.Value.Clone()
	}
	before := run()
	feats.Set(4, 0, feats.At(4, 0)+10) // perturb component B only (node 4 neighbours node 3)
	after := run()
	for j := 0; j < 4; j++ {
		if math.Abs(before.At(0, j)-after.At(0, j)) > 1e-12 {
			t.Fatal("perturbing a disconnected component changed unrelated embeddings")
		}
	}
	changed := false
	for j := 0; j < 4; j++ {
		if math.Abs(before.At(1, j)-after.At(1, j)) > 1e-9 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("perturbation did not propagate within its own component")
	}
}

// TestForwardBitEqualAcrossProcs runs the encoder forward and backward on a
// graph large enough for its kernels and attention to split into row bands
// across cores, at GOMAXPROCS 1, 2 and 4, and requires the group embeddings
// and every parameter gradient to match bit for bit.
func TestForwardBitEqualAcrossProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(6))
	cfg := DefaultConfig(8)
	g, err := New(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	feats, neighbors, members := smallInputs(rng, 1501, cfg.InDim, 37)
	w := nn.NewMatrix(len(members), cfg.OutDim)
	w.Randomize(rng)
	run := func() []*nn.Matrix {
		tp := nn.NewTape()
		var params []*nn.Node
		out, err := g.Forward(tp, feats, neighbors, members, &params)
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.Backward(tp.Sum(tp.Mul(out, tp.Input(w)))); err != nil {
			t.Fatal(err)
		}
		res := []*nn.Matrix{out.Value}
		for _, p := range params {
			res = append(res, p.Grad)
		}
		return res
	}
	runtime.GOMAXPROCS(1)
	want := run()
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		got := run()
		for m := range want {
			for i := range want[m].Data {
				if math.Float64bits(got[m].Data[i]) != math.Float64bits(want[m].Data[i]) {
					t.Fatalf("GOMAXPROCS=%d: output %d element %d = %v, serial %v", procs, m, i, got[m].Data[i], want[m].Data[i])
				}
			}
		}
	}
}
