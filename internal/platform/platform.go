// Package platform provides the machine catalogue of the paper: the Cray
// J90 "Classic" reference platform, the Cray T3E-900 and the three flavours
// of Clusters of PCs (slow, SMP and fast CoPs), each reduced to the key
// technical data the paper's model consumes (Tables 1 and 2): computation
// rate, per-platform intrinsic flop-count weights, communication rate a1,
// communication overhead b1 and synchronization time b5, plus the memory
// hierarchy of Section 2.6.
package platform

import (
	"fmt"
	"sort"

	"opalperf/internal/hpm"
	"opalperf/internal/memhier"
	"opalperf/internal/vm"
)

// Platform describes one parallel machine.
type Platform struct {
	Name     string
	ClockMHz float64
	// RawRateMFlops is the computation rate in MFlop/s the machine
	// achieves on its *own* counted flops for the Opal kernel (Table 1,
	// "Computation Rate").
	RawRateMFlops float64
	// Weights is the intrinsic flop-cost table: how many flops this
	// platform's hardware counters report per canonical operation.  The
	// differences (vector sqrt iterations on the J90, software intrinsics
	// on the T3E) reproduce the paper's observation that identical results
	// cost very different flop counts (Section 3.2, Table 1).
	Weights hpm.Weights
	// CommPeakMBs is the hardware peak bandwidth (Table 2, "hw peak").
	CommPeakMBs float64
	// CommMBs is the observed middleware bandwidth a1 (Table 2).
	CommMBs float64
	// LatencySec is the observed per-message overhead b1 (Table 2).
	LatencySec float64
	// SyncSec is the synchronization cost b5 per barrier.
	SyncSec float64
	// Mem is the working-set dependent rate model (Section 2.6).
	Mem memhier.Model
	// MaxProcs is the largest useful processor count.
	MaxProcs int
	// CPUsPerNode is 2 for the SMP CoPs twin nodes, the processes per
	// node on a J90Cluster, 1 elsewhere.
	CPUsPerNode int
	// Notes carries free-form remarks surfaced in reports.
	Notes string
	// comm, when non-nil, replaces the one-tier model CommModel builds
	// from the key data (a J90Cluster's TwoTierComm).
	comm vm.CommModel
}

// ComputeModel returns the vm cost model: counted flops retire at
// RawRateMFlops scaled by the memory-hierarchy factor for the current
// working set.
func (pl *Platform) ComputeModel() vm.ComputeModel {
	return &computeModel{pl}
}

type computeModel struct{ pl *Platform }

func (c *computeModel) Seconds(flops float64, ws int) float64 {
	rate := c.pl.RawRateMFlops * 1e6 * c.pl.Mem.Scale(ws)
	if rate <= 0 {
		return 0
	}
	return flops / rate
}

// CommModel returns the vm communication cost model built from the
// observed a1/b1/b5 parameters: the sender is busy b1 + bytes/a1 per
// message and a barrier costs b5.  A cluster platform prices messages by
// its two tiers instead (J90Cluster).
func (pl *Platform) CommModel() vm.CommModel {
	if pl.comm != nil {
		return pl.comm
	}
	return &commModel{pl}
}

type commModel struct{ pl *Platform }

func (c *commModel) SendCost(src, dst, bytes int) (busy, latency float64) {
	busy = c.pl.LatencySec
	if c.pl.CommMBs > 0 {
		busy += float64(bytes) / (c.pl.CommMBs * 1e6)
	}
	return busy, 0
}

func (c *commModel) SyncCost(n int) float64 { return c.pl.SyncSec }

// J90 returns the Cray J90 "Classic" reference platform.  The observed
// 3 MByte/s / 10 ms communication reflect the unfortunate interaction of
// the Sciddle middleware with the Cray PVM implementation that the paper
// analyses (Section 3.1), not the GByte/s crossbar.
func J90() *Platform {
	return &Platform{
		Name:          "Cray J90 Classic",
		ClockMHz:      100,
		RawRateMFlops: 80,
		Weights:       hpm.Weights{Add: 1, Mul: 1, Div: 6, Sqrt: 14, Exp: 12, Trig: 12, Cmp: 1},
		CommPeakMBs:   2000,
		CommMBs:       3,
		LatencySec:    10e-3,
		SyncSec:       5e-3,
		Mem:           memhier.Flat(),
		MaxProcs:      8,
		CPUsPerNode:   1,
		Notes:         "PVM/Sciddle middleware; vector CPUs, no caches",
	}
}

// J90Scalar returns the J90 with vectorization turned off — the study
// Section 2.6 says "could be made by turning vectorization off and on"
// (and immediately dismisses for production: "it would be stupid to turn
// it off").  Scalar issue on the J90 runs the kernel at roughly a tenth
// of the vector rate; the intrinsic weights drop to scalar library costs.
func J90Scalar() *Platform {
	pl := J90()
	pl.Name = "Cray J90 Classic (scalar)"
	pl.RawRateMFlops = 8
	pl.Weights = hpm.Weights{Add: 1, Mul: 1, Div: 3, Sqrt: 9, Exp: 10, Trig: 10, Cmp: 1}
	pl.Notes = "vectorization disabled (Section 2.6 study)"
	return pl
}

// T3E900 returns the Cray T3E-900 MPP.
func T3E900() *Platform {
	return &Platform{
		Name:          "Cray T3E-900",
		ClockMHz:      450,
		RawRateMFlops: 85,
		Weights:       hpm.Weights{Add: 1, Mul: 1, Div: 18, Sqrt: 35, Exp: 25, Trig: 25, Cmp: 0},
		CommPeakMBs:   350,
		CommMBs:       100,
		LatencySec:    12e-6,
		SyncSec:       25e-6,
		Mem: memhier.Model{Levels: []memhier.Level{
			{Name: "cache", Capacity: 96 << 10, RateScale: 1.05},
			{Name: "core", Capacity: 256 << 20, RateScale: 1.0},
			{Name: "swap", Capacity: 1 << 62, RateScale: 0.25},
		}},
		MaxProcs:    512,
		CPUsPerNode: 1,
		Notes:       "MPI; software intrinsics inflate counted flops",
	}
}

// SlowCoPs returns the cost-optimized cluster: single 200 MHz Pentium Pro
// nodes on shared 100BaseT Ethernet.
func SlowCoPs() *Platform {
	return &Platform{
		Name:          "Slow CoPs (Ethernet)",
		ClockMHz:      200,
		RawRateMFlops: 32,
		Weights:       hpm.Weights{Add: 1, Mul: 1, Div: 1, Sqrt: 1.17, Exp: 2, Trig: 2, Cmp: 0},
		CommPeakMBs:   10,
		CommMBs:       3,
		LatencySec:    10e-3,
		SyncSec:       5e-3,
		Mem:           memhier.Pentium200(),
		MaxProcs:      16,
		CPUsPerNode:   1,
		Notes:         "shared 100BaseT Ethernet, TCP PVM",
	}
}

// SMPCoPs returns the twin 200 MHz Pentium Pro cluster with SCI
// shared-memory interconnect; one server process uses both CPUs of a node.
func SMPCoPs() *Platform {
	return &Platform{
		Name:          "SMP CoPs (SCI)",
		ClockMHz:      200,
		RawRateMFlops: 65,
		Weights:       hpm.Weights{Add: 1, Mul: 1, Div: 1, Sqrt: 1.17, Exp: 2, Trig: 2, Cmp: 0},
		CommPeakMBs:   50,
		CommMBs:       15,
		LatencySec:    25e-6,
		SyncSec:       50e-6,
		Mem:           memhier.Pentium200(),
		MaxProcs:      16,
		CPUsPerNode:   2,
		Notes:         "twin Pentium Pro nodes, SCI shared memory",
	}
}

// FastCoPs returns the 400 MHz Pentium cluster with switched Myrinet.
func FastCoPs() *Platform {
	return &Platform{
		Name:          "Fast CoPs (Myrinet)",
		ClockMHz:      400,
		RawRateMFlops: 67,
		Weights:       hpm.CanonicalWeights(),
		CommPeakMBs:   125,
		CommMBs:       30,
		LatencySec:    15e-6,
		SyncSec:       30e-6,
		Mem:           memhier.Pentium200(),
		MaxProcs:      16,
		CPUsPerNode:   1,
		Notes:         "single 400 MHz nodes, switched Gb/s Myrinet, PGI compiler",
	}
}

// All returns the full catalogue in the paper's presentation order.
func All() []*Platform {
	return []*Platform{T3E900(), J90(), SlowCoPs(), SMPCoPs(), FastCoPs()}
}

// Paragon returns the Intel Paragon, one of the machines Sciddle was
// ported to (Section 3.1).  Not part of the paper's evaluation; rough
// key data from the era's published figures (i860 XP nodes, 2D mesh).
func Paragon() *Platform {
	return &Platform{
		Name:          "Intel Paragon",
		ClockMHz:      50,
		RawRateMFlops: 45,
		Weights:       hpm.Weights{Add: 1, Mul: 1, Div: 8, Sqrt: 16, Exp: 20, Trig: 20, Cmp: 0},
		CommPeakMBs:   175,
		CommMBs:       35,
		LatencySec:    40e-6,
		SyncSec:       80e-6,
		Mem: memhier.Model{Levels: []memhier.Level{
			{Name: "cache", Capacity: 16 << 10, RateScale: 1.1},
			{Name: "core", Capacity: 32 << 20, RateScale: 1.0},
			{Name: "swap", Capacity: 1 << 62, RateScale: 0.2},
		}},
		MaxProcs:    256,
		CPUsPerNode: 1,
		Notes:       "extra platform: Sciddle port target, not in the paper's tables",
	}
}

// SX4 returns the NEC SX-4 vector SMP, another Sciddle port (Section
// 3.1).  Not part of the paper's evaluation; key data approximate.
func SX4() *Platform {
	return &Platform{
		Name:          "NEC SX-4",
		ClockMHz:      125,
		RawRateMFlops: 1800,
		Weights:       hpm.Weights{Add: 1, Mul: 1, Div: 5, Sqrt: 12, Exp: 10, Trig: 10, Cmp: 1},
		CommPeakMBs:   16000,
		CommMBs:       40,
		LatencySec:    1e-3,
		SyncSec:       1e-3,
		Mem:           memhier.Flat(),
		MaxProcs:      32,
		CPUsPerNode:   1,
		Notes:         "extra platform: Sciddle port target, not in the paper's tables",
	}
}

// ByName looks a platform up case-sensitively by its short key: "j90",
// "t3e", "slow", "smp", "fast".
func ByName(key string) (*Platform, error) {
	switch key {
	case "j90":
		return J90(), nil
	case "t3e":
		return T3E900(), nil
	case "slow":
		return SlowCoPs(), nil
	case "smp":
		return SMPCoPs(), nil
	case "fast":
		return FastCoPs(), nil
	case "paragon":
		return Paragon(), nil
	case "sx4":
		return SX4(), nil
	}
	return nil, fmt.Errorf("platform: unknown key %q (want j90, t3e, slow, smp, fast, paragon or sx4)", key)
}

// Keys returns the valid ByName keys, sorted.
func Keys() []string {
	ks := []string{"j90", "t3e", "slow", "smp", "fast", "paragon", "sx4"}
	sort.Strings(ks)
	return ks
}
