package monitor

import (
	"math"
	"sort"
	"time"
)

// coarseLevelsPerOctave is the quantization resolution of a CoarseSnapshot:
// continuous availability values map to level = round(log2(v) * 2), so one
// level step is a factor of √2 (~41%). Placement decisions are insensitive
// to smaller fluctuations — the demand models themselves carry more noise —
// which is what lets a cached decision outlive them.
const coarseLevelsPerOctave = 2

// CoarseSnapshot is a quantized fingerprint of a Snapshot: per-resource
// availability reduced to logarithmic levels plus the health-verdict vector
// (per-server reachability). Two snapshots with the same fingerprint
// describe, for placement purposes, the same resource picture. The
// decision cache stores one with each entry and compares it against the
// live fingerprint with Drift, invalidating the entry on too large a drift
// or any health change.
type CoarseSnapshot struct {
	LocalCPULevel   int
	BatteryLevel    int
	ImportanceLevel int
	OnWallPower     bool
	// Servers is sorted by name so fingerprints are deterministic.
	Servers []CoarseServer
}

// CoarseServer is one server's quantized availability and health verdict.
type CoarseServer struct {
	Name           string
	Reachable      bool
	CPULevel       int
	BandwidthLevel int
	LatencyLevel   int
}

// QuantizeLevel maps a positive availability value to its logarithmic
// level; zero and negative values share the minimum level.
func QuantizeLevel(v float64) int {
	if v <= 0 {
		return math.MinInt32
	}
	return int(math.Round(math.Log2(v) * coarseLevelsPerOctave))
}

// Coarsen reduces a snapshot to its fingerprint over the given candidate
// servers. Health verdicts must already be folded into the snapshot (the
// client applies them at snapshot fill), so Reachable is the verdict vector.
func Coarsen(s *Snapshot, servers []string) CoarseSnapshot {
	c := CoarseSnapshot{
		LocalCPULevel:   QuantizeLevel(s.LocalCPU.AvailMHz),
		BatteryLevel:    QuantizeLevel(s.Battery.RemainingJoules),
		ImportanceLevel: QuantizeLevel(s.Battery.Importance),
		OnWallPower:     s.Battery.OnWallPower,
	}
	if len(servers) > 0 {
		c.Servers = make([]CoarseServer, 0, len(servers))
		for _, name := range servers {
			net := s.Network[name]
			cpu := s.RemoteCPU[name]
			c.Servers = append(c.Servers, CoarseServer{
				Name:           name,
				Reachable:      net.Reachable,
				CPULevel:       QuantizeLevel(cpu.AvailMHz),
				BandwidthLevel: QuantizeLevel(net.BandwidthBps),
				LatencyLevel:   QuantizeLevel(float64(net.Latency) / float64(time.Millisecond)),
			})
		}
		sort.Slice(c.Servers, func(i, j int) bool { return c.Servers[i].Name < c.Servers[j].Name })
	}
	return c
}

// Drift compares a cached fingerprint against a live one. maxLevels is the
// largest per-resource level delta (√2 per level); healthChanged reports a
// change in the health-verdict vector — per-server reachability, wall-power
// state, or the server set itself — which drift tolerance never excuses.
func (c CoarseSnapshot) Drift(live CoarseSnapshot) (maxLevels int, healthChanged bool) {
	abs := func(d int) int {
		if d < 0 {
			return -d
		}
		return d
	}
	max := func(a, b int) int {
		if a > b {
			return a
		}
		return b
	}
	maxLevels = abs(levelDelta(c.LocalCPULevel, live.LocalCPULevel))
	maxLevels = max(maxLevels, abs(levelDelta(c.BatteryLevel, live.BatteryLevel)))
	maxLevels = max(maxLevels, abs(levelDelta(c.ImportanceLevel, live.ImportanceLevel)))
	if c.OnWallPower != live.OnWallPower {
		healthChanged = true
	}
	if len(c.Servers) != len(live.Servers) {
		return maxLevels, true
	}
	for i, cs := range c.Servers {
		ls := live.Servers[i]
		if cs.Name != ls.Name || cs.Reachable != ls.Reachable {
			return maxLevels, true
		}
		maxLevels = max(maxLevels, abs(levelDelta(cs.CPULevel, ls.CPULevel)))
		maxLevels = max(maxLevels, abs(levelDelta(cs.BandwidthLevel, ls.BandwidthLevel)))
		maxLevels = max(maxLevels, abs(levelDelta(cs.LatencyLevel, ls.LatencyLevel)))
	}
	return maxLevels, healthChanged
}

// levelDelta treats a transition between "no supply" (the sentinel minimum
// level) and any real level as a maximal move, without overflowing the
// int arithmetic the caller does on the result.
func levelDelta(a, b int) int {
	if a == b {
		return 0
	}
	if a == math.MinInt32 || b == math.MinInt32 {
		return math.MaxInt32 / 2
	}
	return a - b
}
