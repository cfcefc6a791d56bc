package plan

// Pipeline mechanics: pass sequencing, per-pass metrics, error wrapping, and
// the ForOrder fast path that re-runs only Ordering over a lowered artifact.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"heterog/internal/compiler"
	"heterog/internal/strategy"
)

func TestPipelineRecordsMetricsInPassOrder(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenAR)
	want := PassOrder()
	if len(a.Metrics) != len(want)-1 { // Lower excludes Ordering
		t.Fatalf("%d metric entries, want %d", len(a.Metrics), len(want)-1)
	}
	for i, m := range a.Metrics {
		if m.Pass != want[i] {
			t.Fatalf("metrics[%d] from pass %q, want %q", i, m.Pass, want[i])
		}
		if m.Duration < 0 {
			t.Fatalf("pass %s recorded negative duration", m.Pass)
		}
	}
	// The lowering passes between them must account for every emitted op and
	// must have moved bytes (the model is distributed across servers).
	var ops int
	var bytes int64
	for _, m := range a.Metrics {
		ops += m.Ops
		bytes += m.Bytes
	}
	if ops == 0 || bytes == 0 {
		t.Fatalf("pipeline metrics empty: %d ops, %d bytes", ops, bytes)
	}
}

type failingPass struct{}

func (failingPass) Name() string           { return "boom" }
func (failingPass) Run(a *Artifacts) error { return errors.New("deliberate") }

func TestPipelineWrapsPassErrors(t *testing.T) {
	err := NewPipeline(failingPass{}).Run(&Artifacts{})
	if err == nil || !strings.Contains(err.Error(), "pass boom:") {
		t.Fatalf("pass failure not wrapped with pass name: %v", err)
	}
}

func TestForOrderReusesLoweredGraph(t *testing.T) {
	a := lowerUniform(t, strategy.DPEvenAR)
	ranked := a.ForOrder(false)
	fifo := a.ForOrder(true)
	if err := Order(ranked); err != nil {
		t.Fatal(err)
	}
	if err := Order(fifo); err != nil {
		t.Fatal(err)
	}
	// Both orders run over the same materialized graph instance.
	if ranked.Dist != a.Dist || fifo.Dist != a.Dist {
		t.Fatal("ForOrder must share the lowered DistGraph, not re-lower")
	}
	if len(ranked.Priorities) != len(a.Dist.Ops) || len(fifo.Priorities) != len(a.Dist.Ops) {
		t.Fatal("priorities must cover every dist op")
	}
	// FIFO priorities are creation-order (-ID): strictly decreasing.
	for i := 1; i < len(fifo.Priorities); i++ {
		if fifo.Priorities[i] >= fifo.Priorities[i-1] {
			t.Fatal("FIFO priorities must follow creation order")
		}
	}
	same := true
	for i := range ranked.Priorities {
		if ranked.Priorities[i] != fifo.Priorities[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("ranked and FIFO orders should not coincide on a distributed graph")
	}
	// Each order view carries exactly its own Ordering metrics.
	if len(ranked.Metrics) != 1 || ranked.Metrics[0].Pass != "ordering" {
		t.Fatalf("order view metrics %+v, want a single ordering entry", ranked.Metrics)
	}
}

func TestOrderingRequiresMaterializedGraph(t *testing.T) {
	if err := Order(&Artifacts{}); err == nil {
		t.Fatal("ordering without a lowered graph must error")
	}
}

func TestCompileAblatedDensePS(t *testing.T) {
	// Ablations flow through the pipeline: DensePS pushes full gradients for
	// sparse ops, so the ablated graph moves strictly more bytes.
	g, c, cm, gr := setup(t, "bert24", 24)
	s := strategy.Uniform(gr, strategy.Decision{Kind: strategy.DPEvenPS})
	base, err := CompileAblated(g, c, s, cm, 1, compiler.Ablations{})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := CompileAblated(g, c, s, cm, 1, compiler.Ablations{DensePS: true})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(dg *compiler.DistGraph) int64 {
		var n int64
		for _, op := range dg.Ops {
			if strings.Contains(op.Name, "_push@") {
				n += op.OutBytes
			}
		}
		return n
	}
	if sum(dense) <= sum(base) {
		t.Fatal("DensePS ablation must push more gradient bytes than sparse PS")
	}
}

// TestConcurrentOrderingOfOneArtifact ranks and FIFO-orders one lowered
// artifact from two goroutines at once, as evaluations of one cached
// artifact under both execution orders do, and requires each to match the
// priorities computed alone. Run under the race detector, it also shows
// that the shared graph and topological order are only read.
func TestConcurrentOrderingOfOneArtifact(t *testing.T) {
	a := lowerUniform(t, strategy.DPPropPS)
	want := make(map[bool][]float64)
	for _, fifo := range []bool{false, true} {
		oa := a.ForOrder(fifo)
		if err := Order(oa); err != nil {
			t.Fatal(err)
		}
		want[fifo] = oa.Priorities
	}
	cp := a.Dist.CriticalPathFrom(a.Topo)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, fifo := range []bool{false, true} {
		wg.Add(1)
		go func(fifo bool) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				oa := a.ForOrder(fifo)
				if err := Order(oa); err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(oa.Priorities, want[fifo]) {
					errs <- fmt.Errorf("fifo=%v: priorities differ from a lone run", fifo)
					return
				}
				if got := a.Dist.CriticalPathFrom(a.Topo); got != cp {
					errs <- fmt.Errorf("critical path %v, alone %v", got, cp)
					return
				}
			}
		}(fifo)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
