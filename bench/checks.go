package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"heterog/internal/cli"
	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/graph"
	"heterog/internal/strategy"
)

// checkedPlans is how many returned plans each run re-evaluates.
const checkedPlans = 8

// checkPlans re-evaluates a seeded sample of the run's returned plans
// in-process: decode the strategy, simulate it on the same spec with a
// fresh evaluator, and require the reported per-iteration time to match to
// 1e-9 relative. Each miss counts as a failure. A nil error means the
// checks ran, not that they passed.
func (r *run) checkPlans() error {
	rng := rand.New(rand.NewSource(r.env.seed))
	idx := rng.Perm(len(r.plans))
	if len(idx) > checkedPlans {
		idx = idx[:checkedPlans]
	}
	for _, i := range idx {
		p := r.plans[i]
		in, err := r.planInput(p)
		if err != nil {
			r.acct.miss("plan of %s: %v", classOf(p.spec), err)
			continue
		}
		if err := matchPlan(in, p.rep.PerIterationSec); err != nil {
			r.acct.miss("%s (%s): %v", classOf(p.spec), p.rep.Cluster, err)
		}
	}
	return nil
}

// matchPlan re-simulates the decoded strategy under both execution orders
// (the planner ships whichever runs the winner faster, and the strategy
// format does not record which) and requires one to reproduce want.
func matchPlan(in *planInput, want float64) error {
	var got []float64
	for _, fifo := range []bool{false, true} {
		ev := *in.ev
		ev.UseFIFO = fifo
		e, err := ev.Evaluate(in.strat)
		if err != nil {
			return fmt.Errorf("re-evaluate: %w", err)
		}
		if math.Abs(e.PerIter-want) <= 1e-9*want {
			return nil
		}
		got = append(got, e.PerIter)
	}
	return fmt.Errorf("reported per_iteration_sec %.12g, re-evaluated %.12g (ranked order) and %.12g (FIFO)", want, got[0], got[1])
}

// planInput is a returned plan rebuilt in-process: its graph, cluster view,
// a fresh evaluator and the decoded strategy.
type planInput struct {
	spec  cli.Spec
	g     *graph.Graph
	view  *cluster.View
	ev    *core.Evaluator
	strat *strategy.Strategy
}

// planInput rebuilds a returned plan the way the server planned it.
func (r *run) planInput(p planned) (*planInput, error) {
	g, err := p.spec.BuildGraph()
	if err != nil {
		return nil, err
	}
	var view *cluster.View
	if r.fleetGPUs > 0 {
		fc, err := (&cli.Spec{GPUs: r.fleetGPUs}).BuildCluster()
		if err != nil {
			return nil, err
		}
		if view, err = leaseView(fc, p.rep.Cluster); err != nil {
			return nil, err
		}
	} else {
		c, err := p.spec.BuildCluster()
		if err != nil {
			return nil, err
		}
		view = c.FullView()
	}
	seed := p.spec.Seed
	if seed == 0 {
		seed = 1
	}
	ev, err := core.NewEvaluator(g, view, seed)
	if err != nil {
		return nil, err
	}
	s, err := strategy.Load(bytes.NewReader(p.rep.Strategy), len(g.Ops))
	if err != nil {
		return nil, err
	}
	return &planInput{spec: p.spec, g: g, view: view, ev: ev, strat: s}, nil
}

// leaseView rebuilds a lease's cluster view from its shape name, as
// cluster.ViewOf renders it: "view[4xTesla V100@100G+4xGTX 1080Ti@50G]".
// Plans depend only on the shape, so any servers of the fleet with that
// shape reproduce the view the server planned on.
func leaseView(fleet *cluster.Cluster, shape string) (*cluster.View, error) {
	inner, ok := strings.CutPrefix(shape, "view[")
	if !ok || !strings.HasSuffix(inner, "]") {
		return nil, fmt.Errorf("not a lease shape: %q", shape)
	}
	used := make(map[int]bool)
	var devs []int
	for _, part := range strings.Split(strings.TrimSuffix(inner, "]"), "+") {
		x, at := strings.Index(part, "x"), strings.LastIndex(part, "@")
		if x < 1 || at < x || !strings.HasSuffix(part, "G") {
			return nil, fmt.Errorf("bad server shape %q in %q", part, shape)
		}
		n, err := strconv.Atoi(part[:x])
		if err != nil {
			return nil, fmt.Errorf("bad server shape %q in %q", part, shape)
		}
		model, nic := part[x+1:at], part[at+1:len(part)-1]
		found := false
		for id, srv := range fleet.Servers {
			if used[id] || len(srv.Devices) != n ||
				fleet.Devices[srv.Devices[0]].Model.Name != model ||
				fmt.Sprintf("%.0f", srv.NICBandwidth*8/1e9) != nic {
				continue
			}
			used[id] = true
			devs = append(devs, srv.Devices...)
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("no free server of shape %q in %s", part, fleet.Name)
		}
	}
	v, err := fleet.ViewOf(devs...)
	if err != nil {
		return nil, err
	}
	if v.Name != shape {
		return nil, fmt.Errorf("rebuilt view %q, want %q", v.Name, shape)
	}
	return v, nil
}
