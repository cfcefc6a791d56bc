package policy

import (
	"math"
	"math/rand"
	"testing"

	"heterog/internal/nn"
)

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{}, rng); err == nil {
		t.Fatal("zero config must error")
	}
	if _, err := New(Config{InDim: 4, Dim: 8, FFDim: 16, Blocks: 1, Actions: 1}, rng); err == nil {
		t.Fatal("single-action policy must error")
	}
	net, err := New(DefaultConfig(16, 12), rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.Actions != 12 {
		t.Fatalf("actions %d", net.Actions)
	}
}

func TestForwardProducesDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net, err := New(DefaultConfig(8, 12), rng)
	if err != nil {
		t.Fatal(err)
	}
	groups := nn.NewMatrix(9, 8)
	for i := range groups.Data {
		groups.Data[i] = rng.NormFloat64()
	}
	tp := nn.NewTape()
	var params []*nn.Node
	probs, err := net.Forward(tp, tp.Input(groups), &params)
	if err != nil {
		t.Fatal(err)
	}
	if probs.Value.Rows != 9 || probs.Value.Cols != 12 {
		t.Fatalf("probs %dx%d", probs.Value.Rows, probs.Value.Cols)
	}
	for i := 0; i < probs.Value.Rows; i++ {
		var sum float64
		for _, p := range probs.Value.Row(i) {
			if p < 0 || p > 1 {
				t.Fatalf("probability %v out of range", p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
	if len(params) == 0 {
		t.Fatal("no parameters registered")
	}
}

func TestForwardWidthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net, err := New(DefaultConfig(8, 12), rng)
	if err != nil {
		t.Fatal(err)
	}
	tp := nn.NewTape()
	var params []*nn.Node
	if _, err := net.Forward(tp, tp.Input(nn.NewMatrix(4, 5)), &params); err == nil {
		t.Fatal("width mismatch must error")
	}
}

func TestPolicyGradientMovesProbabilityMass(t *testing.T) {
	// Bandit check: reward action 3 on every group; after REINFORCE steps
	// the policy must concentrate mass on it.
	rng := rand.New(rand.NewSource(4))
	net, err := New(Config{InDim: 6, Dim: 16, FFDim: 32, Blocks: 1, Actions: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	groups := nn.NewMatrix(4, 6)
	for i := range groups.Data {
		groups.Data[i] = rng.NormFloat64()
	}
	opt := nn.NewAdam(0.02)
	var before float64
	for step := 0; step < 120; step++ {
		tp := nn.NewTape()
		var params []*nn.Node
		probs, err := net.Forward(tp, tp.Input(groups), &params)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			before = probs.Value.At(0, 3)
		}
		picks := []int{3, 3, 3, 3}
		weights := []float64{1, 1, 1, 1} // constant positive advantage
		obj := tp.GatherLogProbs(probs, picks, weights)
		if err := tp.Backward(obj); err != nil {
			t.Fatal(err)
		}
		opt.Step(params, true)
	}
	tp := nn.NewTape()
	var params []*nn.Node
	probs, err := net.Forward(tp, tp.Input(groups), &params)
	if err != nil {
		t.Fatal(err)
	}
	after := probs.Value.At(0, 3)
	if after < 0.9 {
		t.Fatalf("policy mass on rewarded action: before %.3f after %.3f, want > 0.9", before, after)
	}
}

func TestDeterministicForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net, err := New(DefaultConfig(4, 6), rng)
	if err != nil {
		t.Fatal(err)
	}
	groups := nn.NewMatrix(3, 4)
	for i := range groups.Data {
		groups.Data[i] = rng.NormFloat64()
	}
	run := func() *nn.Matrix {
		tp := nn.NewTape()
		var params []*nn.Node
		probs, err := net.Forward(tp, tp.Input(groups), &params)
		if err != nil {
			t.Fatal(err)
		}
		return probs.Value
	}
	a, b := run(), run()
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("forward pass must be deterministic")
		}
	}
}
