// Package parallel models the distributed-training parallelism
// strategies of the paper: tensor (TP), pipeline (PP), data (DP) and
// virtual-pipeline (VPP) parallelism, plus the sequence (SP) and expert
// (EP) extensions of §4.1. Its central type is the Unit — the paper's
// "parallelism unit" — a group of pipeline stages that owns its own
// DP/TP configuration and communication groups, connected to adjacent
// units only through communication brokers.
package parallel

import (
	"fmt"

	"disttrain/internal/cluster"
)

// Config is a parallelism strategy for one module.
type Config struct {
	// TP is tensor-parallel size; confined to {1,2,4,8} on 8-GPU nodes
	// (§4.3).
	TP int
	// PP is pipeline-parallel size (number of stages in this unit).
	PP int
	// DP is data-parallel size.
	DP int
	// VPP is virtual-pipeline (interleaved 1F1B) size; 1 disables it.
	VPP int
	// SP enables sequence parallelism inside the unit (§4.1): the
	// sequence dimension is split across the TP group; it changes
	// communication shape, not GPU count.
	SP bool
	// EP is expert-parallel size for MoE backbones; 1 disables it. EP
	// and TP both parallelise within a layer, so formulas involving TP
	// remain valid with TP replaced by EP (§4.1).
	EP int
}

// Plain returns a minimal configuration with the given sizes and no
// VPP/SP/EP extensions.
func Plain(tp, pp, dp int) Config { return Config{TP: tp, PP: pp, DP: dp, VPP: 1, EP: 1} }

// GPUs returns the GPU count the configuration occupies.
func (c Config) GPUs() int { return c.TP * c.PP * c.DP }

// ModelParallelWidth returns the within-layer parallel degree: EP when
// expert parallelism is active, TP otherwise (§4.1).
func (c Config) ModelParallelWidth() int {
	if c.EP > 1 {
		return c.EP
	}
	return c.TP
}

// Validate reports whether the configuration is usable on nodes with
// the given GPU count.
func (c Config) Validate(gpusPerNode int) error {
	switch {
	case c.TP < 1 || c.PP < 1 || c.DP < 1:
		return fmt.Errorf("parallel: non-positive sizes in %+v", c)
	case c.VPP < 1:
		return fmt.Errorf("parallel: VPP %d must be >= 1", c.VPP)
	case c.EP < 1:
		return fmt.Errorf("parallel: EP %d must be >= 1", c.EP)
	case gpusPerNode > 0 && c.TP > gpusPerNode:
		return fmt.Errorf("parallel: TP %d exceeds node size %d", c.TP, gpusPerNode)
	case gpusPerNode > 0 && gpusPerNode%c.TP != 0:
		return fmt.Errorf("parallel: TP %d does not divide node size %d", c.TP, gpusPerNode)
	}
	return nil
}

func (c Config) String() string {
	s := fmt.Sprintf("TP=%d PP=%d DP=%d", c.TP, c.PP, c.DP)
	if c.VPP > 1 {
		s += fmt.Sprintf(" VPP=%d", c.VPP)
	}
	if c.SP {
		s += " SP"
	}
	if c.EP > 1 {
		s += fmt.Sprintf(" EP=%d", c.EP)
	}
	return s
}

// TPSizes enumerates the tensor-parallel sizes considered by the
// adaptive orchestration algorithm on a node of the given size (§4.3:
// "[1, 2, 4, 8] on an NVIDIA GPU node with 8 GPUs").
func TPSizes(gpusPerNode int) []int {
	var out []int
	for tp := 1; tp <= gpusPerNode; tp *= 2 {
		out = append(out, tp)
	}
	return out
}

// Coord locates one rank inside a unit's (dp, pp, tp) grid.
type Coord struct{ DP, PP, TP int }

// Unit is the paper's parallelism unit (§4.1): one or more PP stages
// with their own DP and TP strategy and a dedicated communication
// group. The rank layout places TP innermost (so TP groups sit inside a
// node), DP next, PP outermost — the Megatron-LM ordering.
type Unit struct {
	Name   string
	Config Config
	// Slice is the contiguous range of global ranks the unit occupies.
	Slice cluster.Slice
}

// NewUnit validates and creates a parallelism unit over a rank slice.
func NewUnit(name string, cfg Config, slice cluster.Slice, gpusPerNode int) (*Unit, error) {
	if err := cfg.Validate(gpusPerNode); err != nil {
		return nil, fmt.Errorf("unit %s: %w", name, err)
	}
	if cfg.GPUs() != slice.Count {
		return nil, fmt.Errorf("unit %s: config needs %d GPUs, slice has %d", name, cfg.GPUs(), slice.Count)
	}
	return &Unit{Name: name, Config: cfg, Slice: slice}, nil
}

// Rank converts a grid coordinate to a global rank.
func (u *Unit) Rank(c Coord) int {
	cfg := u.Config
	return u.Slice.First + (c.PP*cfg.DP+c.DP)*cfg.TP + c.TP
}

// BrokerCount returns the number of communication brokers deployed
// between an upstream and a downstream unit: the greatest common
// divisor of their DP sizes, so total inter-unit bandwidth scales with
// the workload while preserving per-broker data order (§6).
func BrokerCount(upstream, downstream *Unit) int {
	return gcd(upstream.Config.DP, downstream.Config.DP)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BrokerAssignment maps DP ranks of adjacent units onto brokers: broker
// b serves upstream DP ranks u with u % brokers == b and downstream DP
// ranks d with d % brokers == b. The modulo assignment keeps every
// broker's load within one microbatch of even.
type BrokerAssignment struct {
	Brokers    int
	Upstream   [][]int // broker -> upstream DP ranks
	Downstream [][]int // broker -> downstream DP ranks
}

// AssignBrokers computes the broker fan-in/fan-out between two units.
func AssignBrokers(upstream, downstream *Unit) BrokerAssignment {
	n := BrokerCount(upstream, downstream)
	a := BrokerAssignment{
		Brokers:    n,
		Upstream:   make([][]int, n),
		Downstream: make([][]int, n),
	}
	for d := 0; d < upstream.Config.DP; d++ {
		a.Upstream[d%n] = append(a.Upstream[d%n], d)
	}
	for d := 0; d < downstream.Config.DP; d++ {
		a.Downstream[d%n] = append(a.Downstream[d%n], d)
	}
	return a
}
