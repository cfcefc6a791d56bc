// Package cluster models heterogeneous GPU clusters: GPU device types with
// different compute power and memory, physical servers, intra-server buses,
// NICs and the inter-server switch fabric. It also treats every directed
// device pair as a "link device" for the scheduler, matching the paper's
// convention that a link between two GPUs is itself a schedulable device.
package cluster

import (
	"fmt"
)

// GPUModel describes a GPU type. PeakTFLOPS is nominal single-precision
// throughput; the profiler scales it by per-op efficiency factors.
type GPUModel struct {
	Name       string
	PeakTFLOPS float64
	// MemBytes is usable device memory.
	MemBytes int64
	// Power is the relative compute power used for proportional replica
	// allocation (the paper quotes V100:1080Ti roughly 2:1).
	Power float64
}

// Stock GPU models matching the paper's testbed.
var (
	TeslaV100 = GPUModel{Name: "Tesla V100", PeakTFLOPS: 15.7, MemBytes: 16 << 30, Power: 2.0}
	GTX1080Ti = GPUModel{Name: "GTX 1080Ti", PeakTFLOPS: 11.3, MemBytes: 11 << 30, Power: 1.0}
	TeslaP100 = GPUModel{Name: "Tesla P100", PeakTFLOPS: 9.3, MemBytes: 12 << 30, Power: 1.0}
)

// RuntimeReserveBytes is device memory claimed by the CUDA context, cuDNN
// workspace and allocator fragmentation, unavailable to tensors.
const RuntimeReserveBytes int64 = 1503238553 // ~1.4 GiB

// Device is one GPU in the cluster.
type Device struct {
	ID     int
	Model  GPUModel
	Server int
}

// UsableMemBytes is the memory available for parameters and activations.
func (d Device) UsableMemBytes() int64 {
	return d.Model.MemBytes - RuntimeReserveBytes
}

// Server is one physical machine hosting GPUs and a NIC.
type Server struct {
	ID int
	// NICBandwidth is the server's network card bandwidth in bytes/second.
	NICBandwidth float64
	// NICLanes is how many concurrent baseline-rate flows the NIC sustains:
	// a 100GbE card absorbs two 50GbE-limited flows in parallel.
	NICLanes int
	// PCIeBandwidth is the intra-server GPU-to-GPU bandwidth in bytes/second.
	PCIeBandwidth float64
	// Devices holds the IDs of GPUs on this server.
	Devices []int
}

// Link is a directed communication channel between two devices. Links between
// GPUs on the same server use the PCIe bandwidth; links across servers are
// bottlenecked by the slower NIC (the switch itself is non-blocking).
type Link struct {
	// Index is the link's dense index in Cluster.Links.
	Index int
	// Src and Dst are device IDs.
	Src, Dst int
	// Bandwidth in bytes/second.
	Bandwidth float64
	// Latency in seconds added per transfer.
	Latency float64
	// SameServer reports whether both endpoints share a physical machine.
	SameServer bool
}

// Cluster is a set of servers, devices and the derived directed links.
type Cluster struct {
	Name    string
	Servers []Server
	Devices []Device
	// Links holds one entry per ordered device pair (src != dst).
	Links []Link

	// linkIdx[src*len(Devices)+dst] is the index in Links of the link
	// src->dst, -1 where there is none.
	linkIdx []int32
}

// indexLinks rebuilds linkIdx from Links, once Devices and Links are final.
func (c *Cluster) indexLinks() {
	n := len(c.Devices)
	c.linkIdx = make([]int32, n*n)
	for i := range c.linkIdx {
		c.linkIdx[i] = -1
	}
	for _, l := range c.Links {
		c.linkIdx[l.Src*n+l.Dst] = int32(l.Index)
	}
}

// Config describes one server class when constructing a cluster.
type Config struct {
	GPUs          int
	Model         GPUModel
	NICBandwidth  float64
	PCIeBandwidth float64
}

// Gbps converts gigabits/second to bytes/second.
func Gbps(g float64) float64 { return g * 1e9 / 8 }

// DefaultLatency is the per-transfer fixed cost in seconds. Intra-server
// transfers are cheaper than cross-server ones.
const (
	IntraServerLatency = 10e-6
	InterServerLatency = 30e-6
)

// New builds a cluster from server configurations. Device IDs are assigned
// in server order.
func New(name string, servers ...Config) *Cluster {
	c := &Cluster{Name: name}
	devID := 0
	baseNIC := servers[0].NICBandwidth
	for _, sc := range servers {
		if sc.NICBandwidth < baseNIC {
			baseNIC = sc.NICBandwidth
		}
	}
	for si, sc := range servers {
		lanes := int(sc.NICBandwidth/baseNIC + 0.5)
		if lanes < 1 {
			lanes = 1
		}
		srv := Server{ID: si, NICBandwidth: sc.NICBandwidth, NICLanes: lanes, PCIeBandwidth: sc.PCIeBandwidth}
		for i := 0; i < sc.GPUs; i++ {
			c.Devices = append(c.Devices, Device{ID: devID, Model: sc.Model, Server: si})
			srv.Devices = append(srv.Devices, devID)
			devID++
		}
		c.Servers = append(c.Servers, srv)
	}
	for _, a := range c.Devices {
		for _, b := range c.Devices {
			if a.ID == b.ID {
				continue
			}
			l := Link{Index: len(c.Links), Src: a.ID, Dst: b.ID}
			if a.Server == b.Server {
				l.SameServer = true
				l.Bandwidth = c.Servers[a.Server].PCIeBandwidth
				l.Latency = IntraServerLatency
			} else {
				nicA := c.Servers[a.Server].NICBandwidth
				nicB := c.Servers[b.Server].NICBandwidth
				if nicB < nicA {
					l.Bandwidth = nicB
				} else {
					l.Bandwidth = nicA
				}
				l.Latency = InterServerLatency
			}
			c.Links = append(c.Links, l)
		}
	}
	c.indexLinks()
	return c
}

// Clone returns a deep copy sharing no mutable state with the original, so
// callers (e.g. fault-scenario generators) can perturb device models and link
// bandwidths without touching the source topology.
func (c *Cluster) Clone() *Cluster {
	out := &Cluster{
		Name:    c.Name,
		Servers: make([]Server, len(c.Servers)),
		Devices: append([]Device(nil), c.Devices...),
		Links:   append([]Link(nil), c.Links...),
		linkIdx: append([]int32(nil), c.linkIdx...),
	}
	for i, s := range c.Servers {
		out.Servers[i] = s
		out.Servers[i].Devices = append([]int(nil), s.Devices...)
	}
	return out
}

// WithoutDevice returns a copy of the cluster with one GPU removed: surviving
// devices are renumbered densely in their original order and the surviving
// links keep their (possibly perturbed) bandwidths and latencies. Servers left
// with no GPUs remain in the topology (their NIC stays available to nobody),
// matching how a dead accelerator leaves its host in place.
func (c *Cluster) WithoutDevice(id int) (*Cluster, error) {
	if id < 0 || id >= len(c.Devices) {
		return nil, fmt.Errorf("cluster: no device %d to remove", id)
	}
	if len(c.Devices) == 1 {
		return nil, fmt.Errorf("cluster: cannot remove the last device")
	}
	out := &Cluster{
		Name: fmt.Sprintf("%s-minus-G%d", c.Name, id),
	}
	remap := make([]int, len(c.Devices))
	for i := range remap {
		remap[i] = -1
	}
	for _, d := range c.Devices {
		if d.ID == id {
			continue
		}
		remap[d.ID] = len(out.Devices)
		nd := d
		nd.ID = remap[d.ID]
		out.Devices = append(out.Devices, nd)
	}
	for _, s := range c.Servers {
		ns := s
		ns.Devices = nil
		for _, d := range s.Devices {
			if remap[d] >= 0 {
				ns.Devices = append(ns.Devices, remap[d])
			}
		}
		out.Servers = append(out.Servers, ns)
	}
	for _, l := range c.Links {
		if remap[l.Src] < 0 || remap[l.Dst] < 0 {
			continue
		}
		nl := l
		nl.Index = len(out.Links)
		nl.Src, nl.Dst = remap[l.Src], remap[l.Dst]
		out.Links = append(out.Links, nl)
	}
	out.indexLinks()
	return out, nil
}

// NumDevices returns the number of GPUs.
func (c *Cluster) NumDevices() int { return len(c.Devices) }

// NumLinks returns the number of directed links.
func (c *Cluster) NumLinks() int { return len(c.Links) }

// LinkBetween returns the directed link from src to dst.
func (c *Cluster) LinkBetween(src, dst int) (Link, error) {
	if src == dst {
		return Link{}, fmt.Errorf("no self link for device %d", src)
	}
	n := len(c.Devices)
	if src < 0 || dst < 0 || src >= n || dst >= n || len(c.linkIdx) != n*n || c.linkIdx[src*n+dst] < 0 {
		return Link{}, fmt.Errorf("no link %d->%d", src, dst)
	}
	return c.Links[c.linkIdx[src*n+dst]], nil
}

// TransferTime estimates moving bytes from src to dst over their direct link.
// Zero-cost if src == dst.
func (c *Cluster) TransferTime(src, dst int, bytes int64) float64 {
	if src == dst {
		return 0
	}
	l, err := c.LinkBetween(src, dst)
	if err != nil {
		return 0
	}
	return l.Latency + float64(bytes)/l.Bandwidth
}

// Testbed12 builds the paper's full 12-GPU, 5-server testbed:
// one server with 4x V100 and a 100GbE NIC, two servers with 2x GTX 1080Ti
// and 50GbE NICs, and two servers with 2x Tesla P100 and 50GbE NICs.
func Testbed12() *Cluster {
	return New("testbed-12gpu",
		Config{GPUs: 4, Model: TeslaV100, NICBandwidth: Gbps(100), PCIeBandwidth: Gbps(120)},
		Config{GPUs: 2, Model: GTX1080Ti, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
		Config{GPUs: 2, Model: GTX1080Ti, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
		Config{GPUs: 2, Model: TeslaP100, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
		Config{GPUs: 2, Model: TeslaP100, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
	)
}

// Testbed8 builds the 8-GPU subset used by Tables 1-3: G0,G1 Tesla V100;
// G2-G5 GTX 1080Ti; G6,G7 Tesla P100.
func Testbed8() *Cluster {
	return New("testbed-8gpu",
		Config{GPUs: 2, Model: TeslaV100, NICBandwidth: Gbps(100), PCIeBandwidth: Gbps(120)},
		Config{GPUs: 2, Model: GTX1080Ti, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
		Config{GPUs: 2, Model: GTX1080Ti, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
		Config{GPUs: 2, Model: TeslaP100, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
	)
}

// Testbed4 is the 4-GPU cluster from Fig 3(a): two V100 and two 1080Ti.
func Testbed4() *Cluster {
	return New("testbed-4gpu",
		Config{GPUs: 2, Model: TeslaV100, NICBandwidth: Gbps(100), PCIeBandwidth: Gbps(120)},
		Config{GPUs: 2, Model: GTX1080Ti, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)},
	)
}

// Testbed64 builds a fleet-scale 64-GPU, 16-server heterogeneous cluster —
// the paper's testbed mix extrapolated to the scale its deployment section
// targets: four 4x V100 servers on 100GbE, eight 4x GTX 1080Ti servers and
// four 4x Tesla P100 servers on 50GbE. It is the cold-path pruning exhibit:
// at M=64 the action space is M+4 wide and per-candidate simulation cost
// grows with device count, so bound-based pruning matters most here.
func Testbed64() *Cluster {
	cfgs := make([]Config, 0, 16)
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, Config{GPUs: 4, Model: TeslaV100, NICBandwidth: Gbps(100), PCIeBandwidth: Gbps(120)})
	}
	for i := 0; i < 8; i++ {
		cfgs = append(cfgs, Config{GPUs: 4, Model: GTX1080Ti, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)})
	}
	for i := 0; i < 4; i++ {
		cfgs = append(cfgs, Config{GPUs: 4, Model: TeslaP100, NICBandwidth: Gbps(50), PCIeBandwidth: Gbps(100)})
	}
	return New("testbed-64gpu", cfgs...)
}

// Homogeneous builds a single-server homogeneous cluster, used by motivation
// examples and tests.
func Homogeneous(n int, model GPUModel) *Cluster {
	return New(fmt.Sprintf("homogeneous-%dx-%s", n, model.Name),
		Config{GPUs: n, Model: model, NICBandwidth: Gbps(100), PCIeBandwidth: Gbps(100)})
}
