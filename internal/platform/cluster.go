package platform

import (
	"fmt"

	"opalperf/internal/vm"
)

// Two-tier communication: the paper notes that Sciddle/PVM was chosen
// because the site operated *four Cray J90s interconnected by HIPPI* and
// parallel Opal was meant to span them — "for such a platform, message
// passing is a must and shared memory would not do."  TwoTierComm prices
// messages differently inside a node (shared-memory PVM) and across nodes
// (network PVM over HIPPI / Ethernet / Myrinet), with processes mapped to
// nodes round-robin-block by id: node = id / ProcsPerNode.
type TwoTierComm struct {
	ProcsPerNode int
	// Intra-node parameters (a1 bytes/s equivalent as MB/s, b1 seconds).
	IntraMBs, IntraLatency float64
	// Inter-node parameters.
	InterMBs, InterLatency float64
	// SyncSeconds is the cluster-wide barrier cost.
	SyncSeconds float64
}

// SendCost implements vm.CommModel.
func (c TwoTierComm) SendCost(src, dst, bytes int) (busy, latency float64) {
	per := c.ProcsPerNode
	if per <= 0 {
		per = 1
	}
	mbs, lat := c.InterMBs, c.InterLatency
	if src/per == dst/per {
		mbs, lat = c.IntraMBs, c.IntraLatency
	}
	busy = lat
	if mbs > 0 {
		busy += float64(bytes) / (mbs * 1e6)
	}
	return busy, 0
}

// SyncCost implements vm.CommModel.
func (c TwoTierComm) SyncCost(n int) float64 { return c.SyncSeconds }

var _ vm.CommModel = TwoTierComm{}

// ClusterOfJ90s returns the paper's motivating target: nodesPerJ90
// processes per J90 node with shared-memory PVM inside and HIPPI network
// PVM between the machines.  The intra-node figures are the measured
// Sciddle/PVM 3 MB/s / 10 ms; HIPPI hardware ran at ~100 MB/s but network
// PVM over it delivered far less — we model 12 MB/s with 1 ms latency.
type ClusterSpec struct {
	Base         *Platform
	ProcsPerNode int
	Comm         TwoTierComm
}

// J90Cluster builds the cluster platform: the J90 compute node with a
// two-tier HIPPI interconnect.
func J90Cluster(procsPerNode int) ClusterSpec {
	base := J90()
	base.Name = fmt.Sprintf("Cluster of J90s (%d cpus/node, HIPPI)", procsPerNode)
	base.MaxProcs = 4 * procsPerNode
	return ClusterSpec{
		Base:         base,
		ProcsPerNode: procsPerNode,
		Comm: TwoTierComm{
			ProcsPerNode: procsPerNode,
			IntraMBs:     base.CommMBs,
			IntraLatency: base.LatencySec,
			InterMBs:     12,
			InterLatency: 1e-3,
			// Barriers already cost the socket-PVM b5; HIPPI's far lower
			// latency does not add on top of it.
			SyncSeconds: base.SyncSec,
		},
	}
}
