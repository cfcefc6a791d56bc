package cli

import (
	"encoding/json"
	"flag"
	"reflect"
	"testing"

	"heterog/internal/graph"
)

func TestFlagRegistrationMirrorsLegacyFlags(t *testing.T) {
	var s Spec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.RegisterModelFlags(fs, "vgg19", 192)
	s.RegisterClusterFlags(fs, 8)
	s.RegisterSearchFlags(fs, 4)
	s.RegisterFaultFlags(fs, 0)
	err := fs.Parse([]string{
		"-model", "resnet50", "-batch", "64", "-gpus", "4", "-seed", "7",
		"-episodes", "2",
		"-faults", "5", "-fault-seed", "9", "-robust", "-blend", "0.25",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Model: "resnet50", Batch: 64, GPUs: 4, Seed: 7, Episodes: 2,
		FaultK: 5, FaultSeed: 9, Robust: true, Blend: 0.25,
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed spec %+v, want %+v", s, want)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]Spec{
		"no model":         {GPUs: 8, Batch: 32},
		"model and graph":  {Model: "vgg19", Graph: json.RawMessage(`{}`), Batch: 32, GPUs: 8},
		"zero batch":       {Model: "vgg19", GPUs: 8},
		"bad gpus":         {Model: "vgg19", Batch: 32, GPUs: 5},
		"negative eps":     {Model: "vgg19", Batch: 32, GPUs: 8, Episodes: -1},
		"robust no faults": {Model: "vgg19", Batch: 32, GPUs: 8, Robust: true},
		"bad blend":        {Model: "vgg19", Batch: 32, GPUs: 8, Blend: 1.5},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}

func TestBuildClusterTestbedsAndCustom(t *testing.T) {
	for _, gpus := range []int{4, 8, 12} {
		s := Spec{Model: "vgg19", Batch: 32, GPUs: gpus}
		c, err := s.BuildCluster()
		if err != nil {
			t.Fatal(err)
		}
		if c.NumDevices() != gpus {
			t.Fatalf("testbed %d has %d devices", gpus, c.NumDevices())
		}
	}
	s := Spec{Model: "vgg19", Batch: 32, Cluster: &ClusterSpec{
		Name: "mixed",
		Servers: []ServerSpec{
			{GPUs: 2, GPU: "v100", NICGbps: 100, PCIeGbps: 128},
			{GPUs: 2, GPU: "1080ti", NICGbps: 50, PCIeGbps: 128},
		},
	}}
	c, err := s.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	if c.NumDevices() != 4 || len(c.Servers) != 2 || c.Name != "mixed" {
		t.Fatalf("custom cluster mis-built: %d devices, %d servers", c.NumDevices(), len(c.Servers))
	}
	if c.Devices[0].Model.Name == c.Devices[3].Model.Name {
		t.Fatal("heterogeneity lost in custom cluster")
	}
	bad := Spec{Cluster: &ClusterSpec{Servers: []ServerSpec{{GPUs: 1, GPU: "tpu", NICGbps: 10, PCIeGbps: 10}}}}
	if _, err := bad.BuildCluster(); err == nil {
		t.Fatal("unknown GPU model accepted")
	}
	if _, err := (&Spec{GPUs: 7}).BuildCluster(); err == nil {
		t.Fatal("unknown testbed size accepted")
	}
}

func TestBuildGraphZooAndSerialized(t *testing.T) {
	zoo := Spec{Model: "vgg19", Batch: 64, GPUs: 4}
	g, err := zoo.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.BatchSize != 64 {
		t.Fatalf("zoo batch %d, want 64", g.BatchSize)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	ser := Spec{Graph: raw, Batch: 128, GPUs: 4}
	g2, err := ser.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.BatchSize != 128 {
		t.Fatalf("serialized batch %d, want the 128 override", g2.BatchSize)
	}
	if g2.NumOps() != g.NumOps() || g2.Name != g.Name {
		t.Fatalf("serialized graph differs: %d ops vs %d", g2.NumOps(), g.NumOps())
	}
	if _, err := (&Spec{Graph: json.RawMessage(`{"name":"x","batch_size":0,"ops":[]}`)}).BuildGraph(); err == nil {
		t.Fatal("zero-batch serialized graph accepted")
	}
}

func TestDefaultBatch(t *testing.T) {
	if got := DefaultBatch("vgg19", 8, 192); got != 192 {
		t.Fatalf("vgg19@8 batch %d", got)
	}
	if got := DefaultBatch("vgg19", 12, 192); got != 288 {
		t.Fatalf("vgg19@12 batch %d", got)
	}
	if got := DefaultBatch("resnet50", 8, 77); got != 77 {
		t.Fatalf("fallback batch %d", got)
	}
}

// Compile-time guard: serialized specs must round-trip through JSON so the
// HTTP job payload and the CLI accept the same shape.
func TestSpecJSONRoundTrip(t *testing.T) {
	s := Spec{Model: "bert24", Batch: 48, GPUs: 8, Episodes: 2, FaultK: 4, Robust: true, Blend: 0.5}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got Spec
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip %+v, want %+v", got, s)
	}
	_ = graph.KindNoOp // keep the graph import for the serialized-graph case
}
