// Package agent is HeteroG's Agent: it encodes a computation graph into node
// features, runs the GAT + strategy network to produce Part-I decisions,
// trains them with REINFORCE against the simulator (reward -sqrt(T), x10 on
// OOM), and exposes Plan, which returns the best strategy found across
// domain-heuristic candidates and RL episodes.
package agent

import (
	"math"

	"heterog/internal/core"
	"heterog/internal/gnn"
	"heterog/internal/graph"
	"heterog/internal/nn"
)

// FeatureDim returns the node-feature width for a cluster of m devices:
// per-device execution time, tensor sizes, transfer estimate and structural
// flags (the attributes the paper's Profiler feeds the GAT).
func FeatureDim(m int) int { return m + 9 }

// encodeFeatures builds the N x FeatureDim node-feature matrix.
func encodeFeatures(ev *core.Evaluator) *nn.Matrix {
	g := ev.Graph
	m := ev.Cluster.NumDevices()
	feats := nn.NewMatrix(g.NumOps(), FeatureDim(m))
	maxLayer := 1
	for _, op := range g.Ops {
		if op.Layer > maxLayer {
			maxLayer = op.Layer
		}
	}
	// Average cross-device transfer time of the op's output: the "average
	// tensor transfer time between each pair of devices" feature.
	avgXfer := func(bytes int64) float64 {
		var sum float64
		cnt := 0
		for s := 0; s < m; s++ {
			for d := 0; d < m; d++ {
				if s != d {
					sum += ev.Cost.TransferTime(s, d, bytes)
					cnt++
				}
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	logScale := func(x float64) float64 { return math.Log1p(x) / 25 }
	for i, op := range g.Ops {
		row := feats.Row(i)
		for d := 0; d < m; d++ {
			// Milliseconds keep values O(1).
			row[d] = ev.Cost.OpTime(op, d, 1) * 1e3
		}
		row[m+0] = logScale(float64(op.OutputBytes))
		row[m+1] = logScale(float64(op.ParamBytes))
		row[m+2] = logScale(op.FLOPs)
		row[m+3] = avgXfer(op.OutputBytes) * 1e3
		row[m+4] = boolf(op.BatchDim)
		row[m+5] = boolf(op.Kind.IsBackward())
		row[m+6] = boolf(op.ParamBytes > 0)
		row[m+7] = boolf(op.Kind == graph.KindEmbeddingLookup || op.SparseGradBytes > 0)
		row[m+8] = float64(op.Layer) / float64(maxLayer)
	}
	return feats
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// encodeNeighbors returns the GAT's self-inclusive neighbour lists for g.
func encodeNeighbors(g *graph.Graph) [][]int {
	var edges [][2]int
	for _, op := range g.Ops {
		for _, in := range op.Inputs {
			edges = append(edges, [2]int{in.ID, op.ID})
		}
	}
	return gnn.Neighborhoods(g.NumOps(), edges)
}
