// Package profile is the Profiler substitute. The paper's Profiler runs each
// model on real GPUs under TensorFlow's tracer and fits linear-regression
// models predicting (a) op execution time from op type, input shape and
// device, and (b) tensor transfer time from size per link. Real silicon is
// unavailable here, so this package generates the "measurements" from an
// analytic roofline-style model — per-(op-kind, GPU) efficiency factors
// calibrated to Fig 3(b)'s observed 1.1-1.9x V100-vs-1080Ti spread — adds
// measurement noise, and then fits the same least-squares regressions the
// paper fits. Everything downstream consumes only the fitted CostModel, just
// as the paper's Strategy Maker consumes only profiled numbers.
package profile

import (
	"fmt"
	"math/rand"

	"heterog/internal/cluster"
	"heterog/internal/graph"
)

// kernelLaunchOverhead is the fixed per-op cost in seconds (kernel launch,
// framework dispatch).
const kernelLaunchOverhead = 120e-6

// commOpOverhead is the fixed cost of initiating a communication op.
const commOpOverhead = 100e-6

// efficiency returns the fraction of a GPU's peak throughput an op kind
// achieves. Tensor-core-friendly dense kernels (Conv2D, MatMul) run far more
// efficiently on the V100 than memory-bound ops, reproducing the per-kind
// speedup variance of Fig 3(b).
func efficiency(kind graph.OpKind, gpu cluster.GPUModel) float64 {
	// Base efficiency by op class.
	var base float64
	switch kind {
	case graph.KindConv2D, graph.KindConv2DBpFilter, graph.KindConv2DBpInput:
		base = 0.44
	case graph.KindMatMul, graph.KindMatMulBp, graph.KindAttention, graph.KindAttentionBp:
		base = 0.48
	case graph.KindConv1D, graph.KindConv1DBp:
		base = 0.36
	case graph.KindDepthwiseConv, graph.KindDepthwiseConvBp:
		base = 0.12 // memory-bound
	case graph.KindBatchNorm, graph.KindBatchNormBp, graph.KindLayerNorm, graph.KindLayerNormBp:
		base = 0.08
	case graph.KindActivation, graph.KindActivationBp, graph.KindElementwise, graph.KindElementwiseBp:
		base = 0.07
	case graph.KindPool, graph.KindPoolBp:
		base = 0.10
	case graph.KindSoftmax, graph.KindSoftmaxBp, graph.KindLoss:
		base = 0.10
	case graph.KindEmbeddingLookup, graph.KindEmbeddingBp:
		base = 0.05
	case graph.KindApplyGradient:
		base = 0.06
	default:
		base = 0.10
	}
	// Architecture bonus: Volta tensor cores accelerate dense kernels beyond
	// the raw TFLOPs ratio; memory-bound ops see little benefit.
	switch gpu.Name {
	case cluster.TeslaV100.Name:
		switch kind {
		case graph.KindConv2D, graph.KindConv2DBpFilter, graph.KindConv2DBpInput,
			graph.KindMatMul, graph.KindMatMulBp, graph.KindAttention, graph.KindAttentionBp:
			base *= 1.35
		case graph.KindConv1D, graph.KindConv1DBp:
			base *= 1.15
		}
	case cluster.TeslaP100.Name:
		// Pascal datacenter part: decent FP32, no tensor cores.
	}
	return base
}

// rawOpTime is the ground-truth execution time of an op on a GPU at a given
// per-replica batch fraction (replica batch / reference batch). It is what a
// real profiler would measure (before noise).
func rawOpTime(op *graph.Op, gpu cluster.GPUModel, batchFrac float64) float64 {
	if op.Kind == graph.KindNoOp {
		return 0
	}
	flops := op.FLOPs
	if op.ComputeScales() {
		flops *= batchFrac
	}
	eff := efficiency(op.Kind, gpu)
	if denseKind(op.Kind) {
		// Small kernels cannot saturate the GPU: effective efficiency ramps
		// up with per-op work. This is what makes Inception-v3 and
		// MobileNet-v2 latency-bound in practice despite modest FLOPs.
		eff *= flops / (flops + kernelSaturationFLOPs)
	}
	return kernelLaunchOverhead + flops/(gpu.PeakTFLOPS*1e12*eff)
}

// kernelSaturationFLOPs is the per-op work at which a dense kernel reaches
// half its peak efficiency.
const kernelSaturationFLOPs = 1.2e9

// denseKind reports whether the op kind runs compute-bound dense kernels.
func denseKind(k graph.OpKind) bool {
	switch k {
	case graph.KindConv2D, graph.KindConv2DBpFilter, graph.KindConv2DBpInput,
		graph.KindMatMul, graph.KindMatMulBp, graph.KindAttention, graph.KindAttentionBp,
		graph.KindConv1D, graph.KindConv1DBp, graph.KindDepthwiseConv, graph.KindDepthwiseConvBp:
		return true
	}
	return false
}

// linReg holds a fitted y = a + b*x model.
type linReg struct{ a, b float64 }

func (l linReg) at(x float64) float64 {
	y := l.a + l.b*x
	if y < 0 {
		return 0
	}
	return y
}

// fitLeastSquares fits y = a + b*x by ordinary least squares.
func fitLeastSquares(xs, ys []float64) (linReg, error) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return linReg{}, fmt.Errorf("need >=2 paired samples, got %d/%d", len(xs), len(ys))
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return linReg{}, fmt.Errorf("degenerate regression: all x identical")
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	return linReg{a, b}, nil
}

// CostModel predicts op execution times per device and tensor transfer times
// per link. It is the contract between the Profiler and the Strategy Maker.
type CostModel struct {
	cluster *cluster.Cluster
	// opTime[deviceID][opID] is a fitted regression over batch fraction.
	opTime map[int]map[int]linReg
	// xfer[linkIndex] predicts transfer seconds from bytes.
	xfer []linReg
	// synthScale[deviceID] multiplies synthetic-op times on fault-perturbed
	// twins (nil means nominal: all ones).
	synthScale []float64
	// MemoryFudge scales activation memory to account for framework workspace.
	MemoryFudge float64
}

// Options configures profiling.
type Options struct {
	// Seed drives the measurement-noise generator.
	Seed int64
	// NoiseFrac is the relative std-dev of measurement noise (default 2%).
	NoiseFrac float64
	// BatchFracs are the representative batch fractions profiled per op
	// (the paper profiles several representative batch sizes).
	BatchFracs []float64
}

func (o *Options) fill() {
	if o.NoiseFrac == 0 {
		o.NoiseFrac = 0.02
	}
	if len(o.BatchFracs) == 0 {
		o.BatchFracs = []float64{1.0 / 12, 1.0 / 8, 0.25, 0.5, 1.0}
	}
}

// Profile runs the synthetic profiler for one graph over a cluster: it
// "measures" each op at representative batch fractions on every device (with
// noise), fits per-op linear regressions, and fits per-link transfer-time
// regressions from timed transfers of representative tensor sizes.
func Profile(g *graph.Graph, c *cluster.Cluster, opts Options) (*CostModel, error) {
	opts.fill()
	rng := rand.New(rand.NewSource(opts.Seed))
	cm := &CostModel{
		cluster:     c,
		opTime:      make(map[int]map[int]linReg, c.NumDevices()),
		MemoryFudge: 1.30,
	}
	noise := func(t float64) float64 {
		return t * (1 + opts.NoiseFrac*rng.NormFloat64())
	}
	for _, dev := range c.Devices {
		m := make(map[int]linReg, g.NumOps())
		for _, op := range g.Ops {
			xs := make([]float64, 0, len(opts.BatchFracs))
			ys := make([]float64, 0, len(opts.BatchFracs))
			for _, bf := range opts.BatchFracs {
				xs = append(xs, bf)
				ys = append(ys, noise(rawOpTime(op, dev.Model, bf)))
			}
			reg, err := fitLeastSquares(xs, ys)
			if err != nil {
				return nil, fmt.Errorf("fit op %q on device %d: %w", op.Name, dev.ID, err)
			}
			m[op.ID] = reg
		}
		cm.opTime[dev.ID] = m
	}
	// Transfer-time regressions per link from representative sizes.
	sizes := []int64{64 << 10, 1 << 20, 16 << 20, 128 << 20}
	cm.xfer = make([]linReg, c.NumLinks())
	for _, l := range c.Links {
		xs := make([]float64, 0, len(sizes))
		ys := make([]float64, 0, len(sizes))
		for _, s := range sizes {
			xs = append(xs, float64(s))
			ys = append(ys, noise(c.TransferTime(l.Src, l.Dst, s)))
		}
		reg, err := fitLeastSquares(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("fit link %d->%d: %w", l.Src, l.Dst, err)
		}
		cm.xfer[l.Index] = reg
	}
	return cm, nil
}

// Perturbed derives a cost model for a fault-perturbed twin of the profiled
// cluster without re-profiling: per-op regressions on device d are scaled by
// devSlow[d] (a straggler's ops take proportionally longer), and per-link
// transfer slopes are divided by linkFactor[i] (a link at a fraction of its
// bandwidth moves bytes proportionally slower; the latency intercept is
// unchanged). pc must be index-compatible with the profiled cluster — same
// device and link numbering — which holds for clusters produced by
// faults.(*Scenario).Apply. Skipping the re-profile keeps scenario scoring
// deterministic: no fresh measurement noise is drawn.
func (cm *CostModel) Perturbed(pc *cluster.Cluster, devSlow, linkFactor []float64) (*CostModel, error) {
	if len(devSlow) != len(cm.opTime) || len(linkFactor) != len(cm.xfer) {
		return nil, fmt.Errorf("profile: perturbation sized for %d devices/%d links, cost model has %d/%d",
			len(devSlow), len(linkFactor), len(cm.opTime), len(cm.xfer))
	}
	out := &CostModel{
		cluster:     pc,
		opTime:      make(map[int]map[int]linReg, len(cm.opTime)),
		xfer:        make([]linReg, len(cm.xfer)),
		synthScale:  append([]float64(nil), devSlow...),
		MemoryFudge: cm.MemoryFudge,
	}
	for dev, m := range cm.opTime {
		f := devSlow[dev]
		scaled := make(map[int]linReg, len(m))
		for id, reg := range m {
			scaled[id] = linReg{a: reg.a * f, b: reg.b * f}
		}
		out.opTime[dev] = scaled
	}
	for i, reg := range cm.xfer {
		out.xfer[i] = linReg{a: reg.a, b: reg.b / linkFactor[i]}
	}
	return out, nil
}

// OpTime predicts execution time of op on device at a per-replica batch
// fraction of the graph's reference batch.
func (cm *CostModel) OpTime(op *graph.Op, device int, batchFrac float64) float64 {
	m, ok := cm.opTime[device]
	if !ok {
		return 0
	}
	reg, ok := m[op.ID]
	if !ok {
		// Ops synthesized after profiling (Split/Concat/GradAgg) cost a
		// memory pass over their output.
		return cm.SyntheticOpTime(op, device, batchFrac)
	}
	if !op.ComputeScales() {
		batchFrac = 1
	}
	return reg.at(batchFrac)
}

// SyntheticOpTime prices compiler-inserted computation ops (Split, Concat,
// GradAgg, ApplyGradient replicas) as a bandwidth-bound pass over their data.
func (cm *CostModel) SyntheticOpTime(op *graph.Op, device int, batchFrac float64) float64 {
	bytes := float64(op.OutputBytes)
	if op.BatchDim {
		bytes *= batchFrac
	}
	// ~550 GB/s effective memory bandwidth on all parts; dominated by launch
	// overhead for small tensors.
	t := kernelLaunchOverhead + bytes/(550e9)
	if cm.synthScale != nil {
		t *= cm.synthScale[device]
	}
	return t
}

// TransferTime predicts moving bytes over the directed link src->dst.
func (cm *CostModel) TransferTime(src, dst int, bytes int64) float64 {
	if src == dst {
		return 0
	}
	l, err := cm.cluster.LinkBetween(src, dst)
	if err != nil {
		return 0
	}
	return commOpOverhead + cm.xfer[l.Index].at(float64(bytes))
}

// RawOpTime exposes the ground-truth (noise-free) time for tests and for
// Fig 3(b)'s normalized-op-time experiment.
func RawOpTime(op *graph.Op, gpu cluster.GPUModel, batchFrac float64) float64 {
	return rawOpTime(op, gpu, batchFrac)
}

// AvgOpTime is the op's execution time averaged over all devices at full
// batch — the ranking key for top-N group selection.
func (cm *CostModel) AvgOpTime(op *graph.Op) float64 {
	var sum float64
	for dev := range cm.opTime {
		sum += cm.OpTime(op, dev, 1)
	}
	return sum / float64(len(cm.opTime))
}
