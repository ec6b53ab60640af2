package parallel

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"disttrain/internal/cluster"
)

func mustUnit(t *testing.T, name string, cfg Config, first int) *Unit {
	t.Helper()
	u, err := NewUnit(name, cfg, cluster.Slice{First: first, Count: cfg.GPUs()}, 8)
	if err != nil {
		t.Fatalf("NewUnit: %v", err)
	}
	return u
}

func TestConfigValidate(t *testing.T) {
	good := Plain(4, 2, 3)
	if err := good.Validate(8); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{TP: 0, PP: 1, DP: 1, VPP: 1, EP: 1},
		{TP: 16, PP: 1, DP: 1, VPP: 1, EP: 1}, // TP > node
		{TP: 3, PP: 1, DP: 1, VPP: 1, EP: 1},  // TP does not divide 8
		{TP: 1, PP: 1, DP: 1, VPP: 0, EP: 1},
		{TP: 1, PP: 1, DP: 1, VPP: 1, EP: 0},
	}
	for i, c := range bad {
		if err := c.Validate(8); err == nil {
			t.Errorf("case %d: accepted %+v", i, c)
		}
	}
}

func TestTPSizes(t *testing.T) {
	if got := TPSizes(8); !reflect.DeepEqual(got, []int{1, 2, 4, 8}) {
		t.Errorf("TPSizes(8) = %v", got)
	}
}

func TestModelParallelWidth(t *testing.T) {
	c := Plain(4, 1, 1)
	if c.ModelParallelWidth() != 4 {
		t.Error("TP width expected")
	}
	c.EP = 16
	if c.ModelParallelWidth() != 16 {
		t.Error("EP should supersede TP when active (§4.1)")
	}
}

func TestRankCoordRoundTrip(t *testing.T) {
	u := mustUnit(t, "llm", Plain(4, 3, 2), 16)
	seen := map[int]bool{}
	for pp := 0; pp < 3; pp++ {
		for dp := 0; dp < 2; dp++ {
			for tp := 0; tp < 4; tp++ {
				c := Coord{DP: dp, PP: pp, TP: tp}
				r := u.Rank(c)
				if seen[r] {
					t.Fatalf("rank %d assigned twice", r)
				}
				seen[r] = true
				got, err := u.coordOf(r)
				if err != nil {
					t.Fatal(err)
				}
				if got != c {
					t.Fatalf("round trip %v -> %d -> %v", c, r, got)
				}
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("covered %d ranks, want 24", len(seen))
	}
	if _, err := u.coordOf(15); err == nil {
		t.Error("coordOf should reject ranks outside the slice")
	}
	if _, err := u.coordOf(40); err == nil {
		t.Error("coordOf should reject ranks past the slice")
	}
}

func TestTPGroupsStayWithinNodes(t *testing.T) {
	// TP innermost means a TP<=8 group never crosses a node boundary
	// when the slice starts on a node boundary.
	u := mustUnit(t, "llm", Plain(8, 2, 4), 0)
	cl := cluster.Production(16)
	for pp := 0; pp < 2; pp++ {
		for dp := 0; dp < 4; dp++ {
			g := u.tpGroup(dp, pp)
			for _, r := range g[1:] {
				if !cl.SameNode(g[0], r) {
					t.Fatalf("TP group %v crosses nodes", g)
				}
			}
		}
	}
}

func TestGroupShapes(t *testing.T) {
	u := mustUnit(t, "llm", Plain(2, 3, 4), 8)
	if g := u.tpGroup(1, 2); len(g) != 2 || g[1] != g[0]+1 {
		t.Errorf("TP group %v, want 2 adjacent ranks (TP innermost)", g)
	}
	// Stage 0 must be the lowest ranks (PP outermost): its DP*TP ranks
	// are exactly [8,16).
	var stage []int
	for dp := 0; dp < 4; dp++ {
		stage = append(stage, u.tpGroup(dp, 0)...)
	}
	sort.Ints(stage)
	for i, r := range stage {
		if r != 8+i {
			t.Fatalf("stage 0 ranks = %v, want [8,16)", stage)
		}
	}
	// One pipeline (fixed DP and TP index) strides a whole stage per hop.
	for pp := 1; pp < 3; pp++ {
		if d := u.Rank(Coord{DP: 1, PP: pp, TP: 1}) - u.Rank(Coord{DP: 1, PP: pp - 1, TP: 1}); d != 8 {
			t.Errorf("PP hop %d strides %d ranks, want DP*TP=8", pp, d)
		}
	}
}

func TestNewUnitRejectsMismatchedSlice(t *testing.T) {
	_, err := NewUnit("x", Plain(2, 2, 2), cluster.Slice{First: 0, Count: 7}, 8)
	if err == nil {
		t.Error("slice/config size mismatch accepted")
	}
}

func TestBrokerCountIsGCD(t *testing.T) {
	up := mustUnit(t, "enc", Plain(1, 1, 6), 0)
	down := mustUnit(t, "llm", Plain(2, 1, 4), 6)
	if got := BrokerCount(up, down); got != 2 {
		t.Errorf("BrokerCount = %d, want gcd(6,4)=2", got)
	}
}

func TestAssignBrokersCoversAllDPRanks(t *testing.T) {
	up := mustUnit(t, "enc", Plain(1, 1, 6), 0)
	down := mustUnit(t, "llm", Plain(1, 1, 4), 6)
	a := AssignBrokers(up, down)
	if a.Brokers != 2 {
		t.Fatalf("brokers = %d", a.Brokers)
	}
	var upAll, downAll []int
	for b := 0; b < a.Brokers; b++ {
		upAll = append(upAll, a.Upstream[b]...)
		downAll = append(downAll, a.Downstream[b]...)
		// Per-broker load is balanced within one unit.
		if len(a.Upstream[b]) != 3 {
			t.Errorf("broker %d upstream load %d, want 3", b, len(a.Upstream[b]))
		}
		if len(a.Downstream[b]) != 2 {
			t.Errorf("broker %d downstream load %d, want 2", b, len(a.Downstream[b]))
		}
	}
	sort.Ints(upAll)
	sort.Ints(downAll)
	if !reflect.DeepEqual(upAll, []int{0, 1, 2, 3, 4, 5}) {
		t.Errorf("upstream coverage = %v", upAll)
	}
	if !reflect.DeepEqual(downAll, []int{0, 1, 2, 3}) {
		t.Errorf("downstream coverage = %v", downAll)
	}
}

// Property: for any valid configuration, ranks form a bijection over
// the slice.
func TestRankBijection(t *testing.T) {
	f := func(tpExp, pp, dp uint8) bool {
		tp := 1 << (tpExp % 4) // 1,2,4,8
		cfg := Plain(tp, int(pp%4)+1, int(dp%5)+1)
		u, err := NewUnit("u", cfg, cluster.Slice{First: 0, Count: cfg.GPUs()}, 8)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for p := 0; p < cfg.PP; p++ {
			for d := 0; d < cfg.DP; d++ {
				for tt := 0; tt < cfg.TP; tt++ {
					r := u.Rank(Coord{DP: d, PP: p, TP: tt})
					if r < 0 || r >= cfg.GPUs() || seen[r] {
						return false
					}
					seen[r] = true
				}
			}
		}
		return len(seen) == cfg.GPUs()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: broker assignment always covers every DP rank exactly once
// on both sides.
func TestAssignBrokersPartition(t *testing.T) {
	f := func(upDP, downDP uint8) bool {
		u := int(upDP%12) + 1
		d := int(downDP%12) + 1
		up, err1 := NewUnit("u", Plain(1, 1, u), cluster.Slice{First: 0, Count: u}, 8)
		down, err2 := NewUnit("d", Plain(1, 1, d), cluster.Slice{First: u, Count: d}, 8)
		if err1 != nil || err2 != nil {
			return false
		}
		a := AssignBrokers(up, down)
		seenUp := map[int]int{}
		seenDown := map[int]int{}
		for b := 0; b < a.Brokers; b++ {
			for _, r := range a.Upstream[b] {
				seenUp[r]++
			}
			for _, r := range a.Downstream[b] {
				seenDown[r]++
			}
		}
		if len(seenUp) != u || len(seenDown) != d {
			return false
		}
		for _, c := range seenUp {
			if c != 1 {
				return false
			}
		}
		for _, c := range seenDown {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// coordOf converts a global rank to its grid coordinate — the inverse
// of Rank, the round-trip oracle.
func (u *Unit) coordOf(rank int) (Coord, error) {
	if !u.Slice.Contains(rank) {
		return Coord{}, fmt.Errorf("unit %s: rank %d outside %v", u.Name, rank, u.Slice)
	}
	local := rank - u.Slice.First
	cfg := u.Config
	return Coord{
		TP: local % cfg.TP,
		DP: (local / cfg.TP) % cfg.DP,
		PP: local / (cfg.TP * cfg.DP),
	}, nil
}

// tpGroup returns the global ranks of one tensor-parallel group.
func (u *Unit) tpGroup(dp, pp int) []int {
	out := make([]int, u.Config.TP)
	for t := range out {
		out[t] = u.Rank(Coord{DP: dp, PP: pp, TP: t})
	}
	return out
}
