package sched

import (
	"math"
	"time"

	"repro/internal/link"
)

// This file implements the migration-decision policy the paper lists as
// future work: "the development of a scheduler which can make optimal
// decisions on when and where to migrate". The model is the classic
// break-even analysis: migrating pays off when the time saved by finishing
// the remaining work on a faster (or less loaded) node exceeds the cost of
// transferring the state.

// NodeSpec extends a node with capacity information for the decision
// policy.
type NodeSpec struct {
	// Speed is the node's relative execution rate (1.0 = reference).
	Speed float64
	// Link models the network between this node and its peers.
	Link link.Model
}

// CostModel decides migrations from load, speed, and transfer estimates.
type CostModel struct {
	cluster *Cluster
	specs   map[string]NodeSpec
}

// NewCostModel builds a decision policy over a cluster. Nodes without a
// registered spec default to speed 1.0 and the 100 Mb/s link.
func NewCostModel(c *Cluster) *CostModel {
	return &CostModel{cluster: c, specs: map[string]NodeSpec{}}
}

// SetSpec registers capacity information for a node.
func (cm *CostModel) SetSpec(node string, spec NodeSpec) { cm.specs[node] = spec }

func (cm *CostModel) spec(node string) NodeSpec {
	if s, ok := cm.specs[node]; ok {
		if s.Speed <= 0 {
			s.Speed = 1
		}
		if s.Link.BitsPerSecond == 0 {
			s.Link = link.Ethernet100
		}
		return s
	}
	return NodeSpec{Speed: 1, Link: link.Ethernet100}
}

// effectiveRate is the execution rate a process sees on a node: the
// node's speed divided among its active processes (processor sharing).
func (cm *CostModel) effectiveRate(node string) float64 {
	n := cm.cluster.Node(node)
	if n == nil {
		return 0
	}
	load := n.Active()
	if load < 1 {
		load = 1
	}
	return cm.spec(node).Speed / float64(load)
}

// Decision is the policy's advice for one process.
type Decision struct {
	// Migrate reports whether moving is predicted to pay off.
	Migrate bool
	// Target is the recommended destination when Migrate is true.
	Target string
	// Gain is the predicted time saved (negative means a loss).
	Gain time.Duration
}

// Advise evaluates whether the process behind h should migrate, given an
// estimate of its remaining work (in seconds at rate 1.0) and the size of
// its state. The source node's load is counted without the process; the
// destination's load is counted with it added.
func (cm *CostModel) Advise(h *Handle, remaining time.Duration, stateBytes int) Decision {
	cur := h.Where()
	curRate := cm.effectiveRate(cur)
	if curRate <= 0 {
		return Decision{}
	}
	stayTime := time.Duration(float64(remaining) / curRate)

	best := Decision{Gain: math.MinInt64}
	for _, name := range cm.cluster.Nodes() {
		if name == cur {
			continue
		}
		n := cm.cluster.Node(name)
		spec := cm.spec(name)
		// Rate after this process arrives.
		rate := spec.Speed / float64(n.Active()+1)
		if rate <= 0 {
			continue
		}
		moveTime := spec.Link.TxTime(stateBytes) +
			time.Duration(float64(remaining)/rate)
		gain := stayTime - moveTime
		if gain > best.Gain {
			best = Decision{Migrate: gain > 0, Target: name, Gain: gain}
		}
	}
	if best.Gain == math.MinInt64 {
		return Decision{}
	}
	return best
}
