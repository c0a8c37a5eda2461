package sim

import (
	"fmt"
	"math"
)

// Link is one link class: sustained bandwidth and a fixed per-message
// latency (envelope handling, kernel launch, staging copies).
type Link struct {
	// GBps is the effective point-to-point bandwidth in gigabytes per
	// second.
	GBps float64 `json:"gbps"`
	// LatencyUS is the fixed per-message cost in microseconds.
	LatencyUS float64 `json:"latency_us"`
}

func (l Link) valid() bool { return l.GBps > 0 && l.LatencyUS >= 0 }

// PairLink pins the link between one specific rank pair, overriding
// the class-derived model — the hook for small heterogeneous
// scenarios (one degraded NIC, one long-haul pair).
type PairLink struct {
	A    int  `json:"a"`
	B    int  `json:"b"`
	Link Link `json:"link"`
}

// Topology models the cluster fabric the ranks exchange over. Ranks
// are packed onto hosts in order: host h owns ranks
// [h·RanksPerHost, (h+1)·RanksPerHost). Traffic between ranks of one
// host rides the Intra link class; traffic crossing hosts rides Inter,
// squeezed through a host uplink shared by all of the host's ranks and
// optionally oversubscribed.
type Topology struct {
	// RanksPerHost is the number of ranks packed per host; 0 (or a
	// value ≥ the world size) means everything shares one host and
	// only Intra matters.
	RanksPerHost int `json:"ranks_per_host,omitempty"`
	// Intra is the link class within a host (PCIe/NVLink scale).
	Intra Link `json:"intra"`
	// Inter is the link class between hosts (network scale).
	Inter Link `json:"inter,omitempty"`
	// Oversubscription divides the effective inter-host uplink
	// bandwidth: a value of 4 models a 4:1 oversubscribed top-of-rack
	// fabric. 0 and 1 both mean non-blocking.
	Oversubscription float64 `json:"oversubscription,omitempty"`
	// Pairs lists per-pair overrides, applied symmetrically.
	Pairs []PairLink `json:"pairs,omitempty"`
}

// hosts returns the number of hosts a k-rank world occupies.
func (t *Topology) hosts(k int) int {
	if t.RanksPerHost <= 0 || t.RanksPerHost >= k {
		return 1
	}
	return (k + t.RanksPerHost - 1) / t.RanksPerHost
}

// uplink returns the effective inter-host uplink bandwidth in
// bytes/second after oversubscription.
func (t *Topology) uplink() float64 {
	over := t.Oversubscription
	if over < 1 {
		over = 1
	}
	return t.Inter.GBps * 1e9 / over
}

// pairOverride returns the override link for (a, b) if one exists.
func (t *Topology) pairOverride(a, b int) (Link, bool) {
	for _, p := range t.Pairs {
		if (p.A == a && p.B == b) || (p.A == b && p.B == a) {
			return p.Link, true
		}
	}
	return Link{}, false
}

func (t *Topology) validate(k int) error {
	if !t.Intra.valid() {
		return fmt.Errorf("sim: topology intra link needs gbps > 0 and latency_us >= 0, got %+v", t.Intra)
	}
	if t.hosts(k) > 1 && !t.Inter.valid() {
		return fmt.Errorf("sim: multi-host topology needs a valid inter link, got %+v", t.Inter)
	}
	if t.Oversubscription < 0 {
		return fmt.Errorf("sim: oversubscription %v must be >= 0", t.Oversubscription)
	}
	if t.RanksPerHost < 0 {
		return fmt.Errorf("sim: ranks_per_host %d must be >= 0", t.RanksPerHost)
	}
	for _, p := range t.Pairs {
		if p.A < 0 || p.A >= k || p.B < 0 || p.B >= k || p.A == p.B {
			return fmt.Errorf("sim: pair override (%d,%d) outside world of %d", p.A, p.B, k)
		}
		if !p.Link.valid() {
			return fmt.Errorf("sim: pair override (%d,%d) link invalid: %+v", p.A, p.B, p.Link)
		}
	}
	return nil
}

// defaultTopology derives a single-host topology from a machine's
// calibrated MPI link model, so scenarios that say nothing about
// topology price like the single-exchange model's flat fabric.
func defaultTopology(base LinkParams) *Topology {
	return &Topology{
		Intra: Link{GBps: base.GBps, LatencyUS: base.LatencyUS},
	}
}

// LinkParams is a flattened (bandwidth, latency) pair used when
// deriving topologies from the calibrated machine models.
type LinkParams struct {
	GBps      float64
	LatencyUS float64
}

// rankCommNS prices rank r's share of one collective exchange through
// the topology: the rank pushes perRankBytes through its slowest
// available path, the host uplink saturates under the traffic of all
// its ranks, and each of nMsgs per-tensor messages pays the path's
// fixed latency. interFrac is the fraction of the rank's traffic that
// crosses a host boundary ((K−g)/(K−1) under uniform peering).
func (t *Topology) rankCommNS(r, k, nMsgs int, perRankBytes float64) int64 {
	g := t.RanksPerHost
	if g <= 0 || g >= k {
		g = k
	}
	interFrac := 0.0
	if k > 1 && g < k {
		interFrac = float64(k-g) / float64(k-1)
	}
	intraBytes := perRankBytes * (1 - interFrac)
	interBytes := perRankBytes * interFrac

	sec := intraBytes / (t.Intra.GBps * 1e9)
	lat := t.Intra.LatencyUS
	if interBytes > 0 {
		// The host uplink carries every resident rank's inter-host
		// traffic; a rank's transfer is gated by its share of that
		// saturated pipe or by its own stream, whichever is slower.
		uplinkSec := float64(g) * interBytes / t.uplink()
		ownSec := interBytes / (t.Inter.GBps * 1e9)
		sec += math.Max(uplinkSec, ownSec)
		lat = math.Max(lat, t.Inter.LatencyUS)
	}
	// A degraded pair link slows every message the rank exchanges over
	// it; model the rank's exchange as gated by its worst link.
	for _, p := range t.Pairs {
		if p.A != r && p.B != r {
			continue
		}
		pairSec := perRankBytes / (p.Link.GBps * 1e9)
		if pairSec > sec {
			sec = pairSec
		}
		lat = math.Max(lat, p.Link.LatencyUS)
	}
	sec += float64(nMsgs) * lat * 1e-6
	return int64(math.Round(sec * 1e9))
}
