package agent

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"heterog/internal/cluster"
	"heterog/internal/core"
	"heterog/internal/models"
	"heterog/internal/nn"
)

var updatePolicyGolden = flag.Bool("update-policy", false, "rewrite testdata/golden_policy_step.json from the current policy step")

const policyGoldenPath = "testdata/golden_policy_step.json"

type policyGolden struct {
	Case    string   `json:"case"`
	Params  string   `json:"params_sha256"`
	Probs   string   `json:"probs_sha256"`
	Rewards []uint64 `json:"reward_bits"`
}

// hashMatrices returns the SHA-256 over the Float64bits of every element of
// ms, in order.
func hashMatrices(ms ...*nn.Matrix) string {
	h := sha256.New()
	var buf [8]byte
	for _, m := range ms {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// zooEvaluator builds an evaluator for a zoo model at batch 64 on
// Testbed8 (seed 1).
func zooEvaluator(t *testing.T, key string) *core.Evaluator {
	t.Helper()
	g, err := models.Build(key, 64)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := core.NewEvaluator(g, cluster.Testbed8().FullView(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// agentParams lists every GAT and strategy-network parameter in a fixed
// order.
func agentParams(a *Agent) []*nn.Matrix {
	var ms []*nn.Matrix
	for _, l := range a.GAT.Layers {
		for _, h := range l.Heads {
			ms = append(ms, h.W, h.A1, h.A2)
		}
	}
	ms = append(ms, a.GAT.Pool, a.Net.Proj)
	for _, b := range a.Net.Blocks {
		ms = append(ms, b.Wq, b.Wk, b.Wv, b.Wo, b.FF1, b.FF2, b.B1, b.B2, b.G1, b.Bb1, b.G2, b.Bb2)
	}
	return append(ms, a.Net.Out, a.Net.OutB)
}

// TestPolicyStepGolden pins the policy step bit for bit: three learning
// batches of four rollouts plus one greedy episode on three zoo models
// (Testbed8, seed 1) must leave every parameter, the final action
// probabilities and every reward exactly as recorded. Any kernel, tape or
// encoder change that reorders a floating-point sum fails it. It runs at
// GOMAXPROCS 1 and 4 against the same golden, because the kernels split
// their rows into bands across cores and a seed must reproduce a run on any
// core count.
func TestPolicyStepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 13 episodes on each of three zoo models")
	}
	if *updatePolicyGolden {
		data, err := json.MarshalIndent(policyStepCases(t), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(policyGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", policyGoldenPath)
		return
	}
	data, err := os.ReadFile(policyGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update-policy to create)", err)
	}
	var want []policyGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			comparePolicyGolden(t, policyStepCases(t), want)
		})
	}
}

// policyStepCases runs the golden's episodes and hashes what they leave.
func policyStepCases(t *testing.T) []policyGolden {
	t.Helper()
	var got []policyGolden
	for _, key := range []string{"inception_v3", "resnet200", "transformer6"} {
		ev := zooEvaluator(t, key)
		a := newAgent(t, 8)
		var rewards []uint64
		for b := 0; b < 3; b++ {
			eps, err := a.RunEpisodes(ev, 4, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, ep := range eps {
				rewards = append(rewards, math.Float64bits(ep.Reward))
			}
		}
		ep, err := a.RunEpisode(ev, false, true)
		if err != nil {
			t.Fatal(err)
		}
		rewards = append(rewards, math.Float64bits(ep.Reward))
		st, err := a.state(ev)
		if err != nil {
			t.Fatal(err)
		}
		probs, _, err := a.forward(nn.NewTape(), st)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, policyGolden{
			Case:    key,
			Params:  hashMatrices(agentParams(a)...),
			Probs:   hashMatrices(probs.Value),
			Rewards: rewards,
		})
	}
	return got
}

func comparePolicyGolden(t *testing.T, got, want []policyGolden) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, got %d", len(want), len(got))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Case != w.Case || g.Params != w.Params || g.Probs != w.Probs {
			t.Errorf("case %s: policy step drifted: params %s probs %s, want params %s probs %s",
				g.Case, g.Params, g.Probs, w.Params, w.Probs)
		}
		if len(g.Rewards) != len(w.Rewards) {
			t.Errorf("case %s: %d rewards, want %d", g.Case, len(g.Rewards), len(w.Rewards))
			continue
		}
		for j := range g.Rewards {
			if g.Rewards[j] != w.Rewards[j] {
				t.Errorf("case %s: reward %d bits %x, want %x", g.Case, j, g.Rewards[j], w.Rewards[j])
			}
		}
	}
}
