package transport

import (
	"fmt"
	"sort"

	"comb/internal/cluster"
	"comb/internal/mpi"
)

// Transport builds MPI endpoints over a simulated cluster.  Rank i is
// bound to node i.
type Transport interface {
	// Name is the transport's registry key (e.g. "gm").
	Name() string
	// Build attaches one endpoint per node and returns them rank-ordered.
	// It must be called at most once per System (fabric ports are
	// exclusive).
	Build(sys *cluster.System) []mpi.Endpoint
}

// LinkPreferencer is an optional Transport extension for transports whose
// interconnect differs from the platform default (Myrinet): the platform
// builder swaps in the preferred wire before attaching endpoints.
type LinkPreferencer interface {
	// PreferredLink returns the link configuration and per-packet wire
	// header the transport was designed for.
	PreferredLink() (cluster.LinkConfig, int)
}

// FaultMarker is an optional Transport extension for transports that
// install a fault injector on the fabric (the faultinject wrappers).
// Injected deliveries can be dropped, delayed or duplicated across
// partition boundaries, which the parallel engine's conservative merge
// cannot reorder deterministically — so the platform layer falls back to
// the serial engine whenever InjectsFaults reports true.
type FaultMarker interface {
	InjectsFaults() bool
}

// Tolerance declares which wire faults a transport survives without
// deadlock or panic.  The fault injector masks its fault menu against
// this before wrapping a transport, so fuzz sweeps only inject faults a
// transport's real-world counterpart claims to handle.
type Tolerance struct {
	// Loss: dropped packets are retransmitted (a reliability layer).
	Loss bool
	// Duplication: redelivered packets are detected and discarded.
	Duplication bool
	// Reorder: out-of-order fragment arrival reassembles correctly.
	Reorder bool
}

// tolerances records what each registered transport survives.  TCP
// carries full SAR + retransmission + dedup, so anything goes.  Portals
// and EMP complete messages on received-byte counts, which is
// order-independent, but a dropped or duplicated fragment skews the
// count forever (deadlock / overrun).  GM's eager protocol assumes the
// Myrinet wire is exactly-once in-order; any violation is fatal.
var tolerances = map[string]Tolerance{
	"gm":      {},
	"portals": {Reorder: true},
	"emp":     {Reorder: true},
	"tcp":     {Loss: true, Duplication: true, Reorder: true},
	"ideal":   {},
}

// ToleranceOf returns the declared fault tolerance for a transport name.
// Unknown names tolerate nothing.
func ToleranceOf(name string) Tolerance { return tolerances[name] }

// DefaultLink reports whether the named transport runs on the platform's
// default interconnect rather than swapping in its own wire via
// LinkPreferencer.  Cross-transport bandwidth comparisons are only
// meaningful among default-link transports: a LinkPreferencer brings its
// own NIC hardware, with its own wire rate and framing.  Unknown names
// report false.
func DefaultLink(name string) bool {
	f, ok := factories[name]
	if !ok {
		return false
	}
	_, prefers := f().(LinkPreferencer)
	return !prefers
}

// factories maps registry names to constructors returning a transport
// with default configuration.
var factories = map[string]func() Transport{
	"gm":      func() Transport { return NewGM() },
	"portals": func() Transport { return NewPortals() },
	"ideal":   func() Transport { return NewIdeal() },
	"tcp":     func() Transport { return NewTCP() },
	"emp":     func() Transport { return NewEMP() },
}

// ByName returns a freshly-configured transport for name.
func ByName(name string) (Transport, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("transport: unknown transport %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists registered transports in sorted order.
func Names() []string {
	var ns []string
	for n := range factories {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
