package platform

import (
	"math"
	"strings"
	"testing"
)

func TestTwoTierCommRouting(t *testing.T) {
	c := TwoTierComm{
		ProcsPerNode: 4,
		IntraMBs:     100, IntraLatency: 1e-5,
		InterMBs: 10, InterLatency: 1e-3,
		SyncSeconds: 2e-3,
	}
	// Same node (ids 0..3).
	busy, lat := c.SendCost(0, 3, 1e6)
	if math.Abs(busy-(1e-5+0.01)) > 1e-12 || lat != 0 {
		t.Errorf("intra busy = %v", busy)
	}
	// Across nodes (0 and 4).
	busy, _ = c.SendCost(0, 4, 1e6)
	if math.Abs(busy-(1e-3+0.1)) > 1e-12 {
		t.Errorf("inter busy = %v", busy)
	}
	// Node boundary arithmetic: 3 and 4 differ, 4 and 7 share.
	b34, _ := c.SendCost(3, 4, 0)
	b47, _ := c.SendCost(4, 7, 0)
	if b34 != 1e-3 || b47 != 1e-5 {
		t.Errorf("boundary costs = %v, %v", b34, b47)
	}
	if c.SyncCost(8) != 2e-3 {
		t.Error("sync cost wrong")
	}
}

func TestTwoTierDefaultsPerNode(t *testing.T) {
	c := TwoTierComm{IntraMBs: 1, InterMBs: 1}
	// ProcsPerNode 0 behaves as 1 (everything inter-node except self).
	b, _ := c.SendCost(0, 1, 0)
	if b != c.InterLatency {
		t.Errorf("busy = %v", b)
	}
}

func TestJ90ClusterSpec(t *testing.T) {
	pl := J90Cluster(8)
	comm, ok := pl.CommModel().(TwoTierComm)
	if !ok {
		t.Fatalf("comm model is %T, want TwoTierComm", pl.CommModel())
	}
	if pl.CPUsPerNode != 8 || comm.ProcsPerNode != 8 {
		t.Error("procs per node mismatch")
	}
	if pl.MaxProcs != 32 {
		t.Errorf("max procs = %d, want 4 nodes x 8", pl.MaxProcs)
	}
	if !strings.Contains(pl.Name, "HIPPI") {
		t.Errorf("name = %q", pl.Name)
	}
	// Intra matches the single-J90 PVM figures; inter is faster in
	// bandwidth but the latency is far below the 10 ms socket PVM.
	if comm.IntraMBs != J90().CommMBs {
		t.Error("intra bandwidth should match the J90 PVM")
	}
	if comm.InterMBs <= comm.IntraMBs {
		t.Error("HIPPI should out-run the intra-node PVM bandwidth")
	}
	if _, ok := J90().CommModel().(TwoTierComm); ok {
		t.Error("the single J90 prices messages by two tiers")
	}
}
