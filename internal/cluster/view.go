package cluster

import (
	"fmt"
	"sort"
	"strings"
)

// View is a planning-time projection of a fleet: a Cluster whose devices are
// a subset of some parent fleet's devices, renumbered densely, plus the
// mapping back to the parent's device IDs. Every layer above this package
// (profiling, planning, simulation, the RL agent, caches) consumes a *View;
// the embedded *Cluster keeps the whole device/link API (NumDevices,
// LinkBetween, TransferTime, ...) available unchanged, so a view is exactly
// as cheap to plan against as a standalone cluster.
//
// Ownership rules:
//   - A View never aliases mutable state with its parent fleet: ViewOf copies
//     the projected servers, devices and induced links, and FullView wraps the
//     fleet pointer directly but is treated as immutable by every consumer
//     (the planner only ever derives perturbed *copies* via Apply/
//     ApplyObservations/WithoutDevice).
//   - Derivations (WithoutDevice, ApplyObservations) preserve the
//     fleet mapping: a perturbed or shrunken view still reports the original
//     fleet device IDs for its survivors.
//   - Local device IDs are dense [0,NumDevices) and are what plans, strategies
//     and simulations speak; FleetID translates back for display, telemetry
//     and lease accounting.
type View struct {
	*Cluster

	// fleetIDs[local] is the parent fleet device ID for local device
	// `local`. nil means the identity mapping (FullView).
	fleetIDs []int
}

// FullView wraps the whole cluster as a view of itself. No copying: the view
// shares the cluster's storage and uses the identity device mapping. This is
// how single-job planning (the paper's original mode) enters the view world.
func (c *Cluster) FullView() *View {
	return &View{Cluster: c}
}

// ViewOf projects the fleet onto a subset of its device IDs, building the
// induced sub-cluster: the selected devices (renumbered densely in ascending
// fleet-ID order), the servers that host at least one of them (renumbered
// densely, empty servers dropped), and exactly the links between selected
// devices, inheriting the fleet's possibly-perturbed bandwidths and
// latencies. Construction cost is O(k^2) in the subset size — untouched
// servers and the fleet's other links are never copied.
//
// The view's Name is derived from the subset's *shape* (per-server GPU model,
// count and NIC bandwidth), not from which fleet devices were picked, so two
// leases with identical shapes produce identical workload fingerprints and
// share warm cache sets.
func (c *Cluster) ViewOf(deviceIDs ...int) (*View, error) {
	if len(deviceIDs) == 0 {
		return nil, fmt.Errorf("cluster: view of zero devices")
	}
	ids := append([]int(nil), deviceIDs...)
	sort.Ints(ids)
	for i, id := range ids {
		if id < 0 || id >= len(c.Devices) {
			return nil, fmt.Errorf("cluster: view device %d out of range [0,%d)", id, len(c.Devices))
		}
		if i > 0 && ids[i-1] == id {
			return nil, fmt.Errorf("cluster: view device %d listed twice", id)
		}
	}

	sub := &Cluster{}
	v := &View{Cluster: sub, fleetIDs: ids}

	serverRemap := make(map[int]int, len(ids))
	for local, id := range ids {
		d := c.Devices[id]
		ns, ok := serverRemap[d.Server]
		if !ok {
			ns = len(sub.Servers)
			serverRemap[d.Server] = ns
			srv := c.Servers[d.Server]
			sub.Servers = append(sub.Servers, Server{
				ID:            ns,
				NICBandwidth:  srv.NICBandwidth,
				NICLanes:      srv.NICLanes,
				PCIeBandwidth: srv.PCIeBandwidth,
			})
		}
		nd := d
		nd.ID = local
		nd.Server = ns
		sub.Devices = append(sub.Devices, nd)
		sub.Servers[ns].Devices = append(sub.Servers[ns].Devices, local)
	}
	for a, src := range ids {
		for b, dst := range ids {
			if a == b {
				continue
			}
			pl, err := c.LinkBetween(src, dst)
			if err != nil {
				return nil, fmt.Errorf("cluster: fleet %q missing link %d->%d: %w", c.Name, src, dst, err)
			}
			nl := pl
			nl.Index = len(sub.Links)
			nl.Src, nl.Dst = a, b
			sub.Links = append(sub.Links, nl)
		}
	}
	sub.indexLinks()
	sub.Name = shapeName(sub)
	return v, nil
}

// shapeName renders a canonical name from the sub-cluster's shape: per-server
// "<count>x<model>@<NIC Gbps>G", servers in ID order. Identical-shaped views
// get identical names regardless of which fleet devices back them, which is
// what lets equal-shaped leases share workload-fingerprint-keyed caches (the
// fingerprint hashes the name plus every device/link value, all of which are
// shape-determined for unperturbed fleets).
func shapeName(c *Cluster) string {
	parts := make([]string, len(c.Servers))
	for i, s := range c.Servers {
		model := "?"
		if len(s.Devices) > 0 {
			model = c.Devices[s.Devices[0]].Model.Name
		}
		parts[i] = fmt.Sprintf("%dx%s@%.0fG", len(s.Devices), model, s.NICBandwidth*8/1e9)
	}
	return "view[" + strings.Join(parts, "+") + "]"
}

// IsFull reports whether the view covers its whole fleet with the identity
// device mapping.
func (v *View) IsFull() bool { return v.fleetIDs == nil }

// FleetID maps a local device ID back to the parent fleet's device ID.
func (v *View) FleetID(local int) int {
	if v.fleetIDs == nil {
		return local
	}
	return v.fleetIDs[local]
}

// FleetIDs returns the fleet device IDs backing the view, in local-ID order.
// The slice is a copy.
func (v *View) FleetIDs() []int {
	if v.fleetIDs == nil {
		ids := make([]int, len(v.Devices))
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	return append([]int(nil), v.fleetIDs...)
}

// ApplyObservations returns a perturbed deep copy of the view with the
// overlay applied (see Cluster.ApplyObservations); the fleet mapping carries
// over unchanged so a drifted lease still knows which fleet devices it holds.
func (v *View) ApplyObservations(o Overlay) *View {
	return &View{
		Cluster:  v.Cluster.ApplyObservations(o),
		fleetIDs: append([]int(nil), v.fleetIDs...),
	}
}

// WithoutDevice returns a copy of the view with one local device removed
// (see Cluster.WithoutDevice); the fleet mapping drops the dead device's
// entry so survivors keep reporting their original fleet IDs.
func (v *View) WithoutDevice(local int) (*View, error) {
	sub, err := v.Cluster.WithoutDevice(local)
	if err != nil {
		return nil, err
	}
	out := &View{Cluster: sub}
	if v.fleetIDs != nil {
		out.fleetIDs = make([]int, 0, len(v.fleetIDs)-1)
		for i, id := range v.fleetIDs {
			if i != local {
				out.fleetIDs = append(out.fleetIDs, id)
			}
		}
	} else {
		// The identity mapping is broken by the removal; materialize the
		// survivors' fleet IDs.
		out.fleetIDs = make([]int, 0, len(v.Devices)-1)
		for i := range v.Devices {
			if i != local {
				out.fleetIDs = append(out.fleetIDs, i)
			}
		}
	}
	return out, nil
}

// Lease is a granted claim on a subset of a fleet's devices: the view to
// plan against plus the identity needed to account for and eventually return
// the devices. Leases are issued by the fleet allocator; the view inside is
// immutable like any other.
type Lease struct {
	// ID names the lease; stable for its lifetime.
	ID string
	// Job is the owning job's identifier (allocator-client scoped).
	Job string
	// Seq orders grants within one allocator: every minted lease gets a
	// strictly larger Seq, so a holder receiving grants out of order keeps
	// the newest by comparing Seq (lease IDs are display names, not ordered).
	Seq uint64
	// View is the induced sub-cluster the lease holder plans against.
	View *View
}

// Devices returns the fleet device IDs held by the lease, ascending.
func (l *Lease) Devices() []int { return l.View.FleetIDs() }

// NumDevices returns how many fleet devices the lease holds.
func (l *Lease) NumDevices() int { return l.View.NumDevices() }
