package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTestbedShapes(t *testing.T) {
	cases := []struct {
		c       *Cluster
		devices int
		servers int
	}{
		{Testbed64(), 64, 16},
		{Testbed12(), 12, 5},
		{Testbed8(), 8, 4},
		{Testbed4(), 4, 2},
	}
	for _, tc := range cases {
		if tc.c.NumDevices() != tc.devices {
			t.Errorf("%s: %d devices, want %d", tc.c.Name, tc.c.NumDevices(), tc.devices)
		}
		if len(tc.c.Servers) != tc.servers {
			t.Errorf("%s: %d servers, want %d", tc.c.Name, len(tc.c.Servers), tc.servers)
		}
		if tc.c.NumLinks() != tc.devices*(tc.devices-1) {
			t.Errorf("%s: %d links, want %d", tc.c.Name, tc.c.NumLinks(), tc.devices*(tc.devices-1))
		}
	}
}

func TestTestbed8DeviceLayout(t *testing.T) {
	// Table 2's caption: G0,G1 V100; G2-G5 1080Ti; G6,G7 P100.
	c := Testbed8()
	want := []string{
		TeslaV100.Name, TeslaV100.Name,
		GTX1080Ti.Name, GTX1080Ti.Name, GTX1080Ti.Name, GTX1080Ti.Name,
		TeslaP100.Name, TeslaP100.Name,
	}
	for i, name := range want {
		if c.Devices[i].Model.Name != name {
			t.Errorf("G%d is %s, want %s", i, c.Devices[i].Model.Name, name)
		}
	}
}

func TestTestbed64Mix(t *testing.T) {
	// The fleet-scale exhibit keeps Testbed8's 1:2:1 V100/1080Ti/P100 mix at
	// 16 servers of 4 GPUs each.
	c := Testbed64()
	counts := map[string]int{}
	for _, d := range c.Devices {
		counts[d.Model.Name]++
	}
	want := map[string]int{TeslaV100.Name: 16, GTX1080Ti.Name: 32, TeslaP100.Name: 16}
	for model, n := range want {
		if counts[model] != n {
			t.Errorf("%s: %d devices, want %d", model, counts[model], n)
		}
	}
	for _, srv := range c.Servers {
		if len(srv.Devices) != 4 {
			t.Errorf("server %d has %d GPUs, want 4", srv.ID, len(srv.Devices))
		}
	}
}

func TestLinkClassification(t *testing.T) {
	c := Testbed8()
	intra, err := c.LinkBetween(0, 1) // both on the V100 server
	if err != nil {
		t.Fatal(err)
	}
	if !intra.SameServer || intra.Bandwidth != c.Servers[0].PCIeBandwidth {
		t.Fatalf("intra-server link misclassified: %+v", intra)
	}
	inter, err := c.LinkBetween(0, 2) // V100 server to a 1080Ti server
	if err != nil {
		t.Fatal(err)
	}
	if inter.SameServer {
		t.Fatal("cross-server link marked same-server")
	}
	// Bottlenecked by the slower 50GbE NIC.
	if inter.Bandwidth != Gbps(50) {
		t.Fatalf("cross link bandwidth %v, want %v", inter.Bandwidth, Gbps(50))
	}
	if inter.Latency <= intra.Latency {
		t.Fatal("cross-server latency should exceed intra-server latency")
	}
}

func TestLinkErrors(t *testing.T) {
	c := Testbed4()
	if _, err := c.LinkBetween(1, 1); err == nil {
		t.Fatal("self link must error")
	}
	if _, err := c.LinkBetween(0, 99); err == nil {
		t.Fatal("out-of-range link must error")
	}
}

func TestTransferTime(t *testing.T) {
	c := Testbed8()
	if got := c.TransferTime(3, 3, 1<<20); got != 0 {
		t.Fatalf("same-device transfer cost %v, want 0", got)
	}
	small := c.TransferTime(0, 2, 1<<10)
	large := c.TransferTime(0, 2, 1<<30)
	if large <= small {
		t.Fatal("transfer time must grow with bytes")
	}
	// 1 GiB over 50GbE is ~0.17s.
	if large < 0.1 || large > 0.3 {
		t.Fatalf("1GiB cross-server transfer %vs out of plausible range", large)
	}
}

func TestNICLanes(t *testing.T) {
	c := Testbed8()
	if c.Servers[0].NICLanes != 2 {
		t.Fatalf("100GbE server should have 2 lanes, got %d", c.Servers[0].NICLanes)
	}
	for s := 1; s < 4; s++ {
		if c.Servers[s].NICLanes != 1 {
			t.Fatalf("50GbE server %d should have 1 lane, got %d", s, c.Servers[s].NICLanes)
		}
	}
}

func TestUsableMemBytes(t *testing.T) {
	c := Testbed8()
	for _, d := range c.Devices {
		if d.UsableMemBytes() >= d.Model.MemBytes {
			t.Fatal("usable memory must subtract the runtime reserve")
		}
		if d.UsableMemBytes() <= 0 {
			t.Fatal("usable memory must stay positive")
		}
	}
}

// TestTotalPower pins Testbed8's relative compute power, the quantity
// proportional layouts split batches by.
func TestTotalPower(t *testing.T) {
	var got float64
	for _, d := range Testbed8().Devices {
		got += d.Model.Power
	}
	// 2x2.0 + 6x1.0 = 10.
	if got != 10 {
		t.Fatalf("total power %v, want 10", got)
	}
}

func TestHomogeneous(t *testing.T) {
	c := Homogeneous(5, GTX1080Ti)
	if c.NumDevices() != 5 || len(c.Servers) != 1 {
		t.Fatalf("homogeneous shape %d devices %d servers", c.NumDevices(), len(c.Servers))
	}
	l, err := c.LinkBetween(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !l.SameServer {
		t.Fatal("single-server cluster should have only intra links")
	}
}

func TestTransferMonotoneInBytesProperty(t *testing.T) {
	c := Testbed12()
	rng := rand.New(rand.NewSource(1))
	f := func(a, b uint32) bool {
		src := rng.Intn(c.NumDevices())
		dst := rng.Intn(c.NumDevices())
		if src == dst {
			return true
		}
		lo, hi := int64(a), int64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.TransferTime(src, dst, lo) <= c.TransferTime(src, dst, hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := Testbed8()
	cl := c.Clone()
	if !reflect.DeepEqual(c.Devices, cl.Devices) || !reflect.DeepEqual(c.Links, cl.Links) || !reflect.DeepEqual(c.Servers, cl.Servers) {
		t.Fatal("clone must start identical")
	}
	cl.Devices[0].Model.MemBytes = 1
	cl.Links[0].Bandwidth = 1
	cl.Servers[0].Devices[0] = 99
	if c.Devices[0].Model.MemBytes == 1 || c.Links[0].Bandwidth == 1 || c.Servers[0].Devices[0] == 99 {
		t.Fatal("mutating the clone must not touch the original")
	}
	if _, err := cl.LinkBetween(0, 1); err != nil {
		t.Fatalf("clone link index broken: %v", err)
	}
}

func TestWithoutDevice(t *testing.T) {
	c := Testbed8()
	// Perturb one surviving link so we can check perturbations survive
	// removal.
	c.Links[c.NumLinks()-1].Bandwidth = 12345
	sv, err := c.WithoutDevice(3)
	if err != nil {
		t.Fatal(err)
	}
	if sv.NumDevices() != 7 {
		t.Fatalf("got %d devices, want 7", sv.NumDevices())
	}
	for i, d := range sv.Devices {
		if d.ID != i {
			t.Fatalf("device IDs must be dense, got %d at %d", d.ID, i)
		}
	}
	if got, want := sv.NumLinks(), 7*6; got != want {
		t.Fatalf("got %d links, want %d", got, want)
	}
	// Old G4..G7 renumber to 3..6; the perturbed last link (G7->G6) must
	// keep its bandwidth at its new index.
	l, err := sv.LinkBetween(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if l.Bandwidth != 12345 {
		t.Fatalf("perturbed link bandwidth lost: %v", l.Bandwidth)
	}
	// Every surviving pair must still resolve.
	for _, a := range sv.Devices {
		for _, b := range sv.Devices {
			if a.ID == b.ID {
				continue
			}
			if _, err := sv.LinkBetween(a.ID, b.ID); err != nil {
				t.Fatalf("missing link %d->%d: %v", a.ID, b.ID, err)
			}
		}
	}
	if _, err := c.WithoutDevice(99); err == nil {
		t.Fatal("removing a nonexistent device must error")
	}
	single := Homogeneous(1, GTX1080Ti)
	if _, err := single.WithoutDevice(0); err == nil {
		t.Fatal("removing the last device must error")
	}
}
