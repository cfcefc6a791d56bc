package plan

import (
	"testing"

	"heterog/internal/compiler"
	"heterog/internal/strategy"
)

// raceEnabled reports a -race build (see race_enabled_test.go).
var raceEnabled bool

// TestLowerAllocs pins the allocation budget of one cold lowering: ResNet-200
// at batch 64 on Testbed8, proportional data parallelism with parameter
// servers, three chained iterations (the evaluator's default), from Layout
// through Verify. Lowering allocated about 541,000 objects here when every
// node, DistOp, input list, unit list, instance map and name was its own
// allocation; with the slabs and shared lists it allocates about 75,000,
// most of them the ops' names. The ceiling leaves a fifth for drift, so a
// return to per-node allocation fails loudly. The race detector adds
// allocations of its own.
func TestLowerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, c, cm, _ := setup(t, "resnet200", 64)
	gr, err := strategy.Group(g, cm, 500)
	if err != nil {
		t.Fatal(err)
	}
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPPropPS})
	avg := testing.AllocsPerRun(3, func() {
		if err := Lower(NewArtifacts(g, c, s, cm, 3, compiler.Ablations{})); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one cold lowering allocates %.0f objects", avg)
	const ceiling = 90000
	if avg > ceiling {
		t.Fatalf("one cold lowering allocates %.0f objects, ceiling %d", avg, ceiling)
	}
}
