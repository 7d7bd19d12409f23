package sched

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/minic"
	"repro/internal/vm"
)

func policyCluster(t *testing.T) (*Cluster, *CostModel) {
	t.Helper()
	e, err := core.NewEngine(slowLoop, minic.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(e)
	c.Configure = func(p *vm.Process) { p.MaxSteps = 50_000_000 }
	c.AddNode("slow", arch.DEC5000)
	c.AddNode("fast", arch.AMD64)
	cm := NewCostModel(c)
	cm.SetSpec("slow", NodeSpec{Speed: 1, Link: link.Ethernet100})
	cm.SetSpec("fast", NodeSpec{Speed: 4, Link: link.Ethernet100})
	return c, cm
}

func TestAdvisePrefersFastIdleNode(t *testing.T) {
	c, cm := policyCluster(t)
	h, err := c.Spawn("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Wait()
	// An hour of remaining work and a small state: moving to the 4x
	// node is an easy win.
	d := cm.Advise(h, time.Hour, 1<<20)
	if !d.Migrate || d.Target != "fast" {
		t.Errorf("decision = %+v", d)
	}
	if d.Gain < 30*time.Minute {
		t.Errorf("gain = %v, expected most of the hour back", d.Gain)
	}
}

func TestAdviseDeclinesWhenTransferDominates(t *testing.T) {
	c, cm := policyCluster(t)
	// Make the fast node's link absurdly slow.
	cm.SetSpec("fast", NodeSpec{Speed: 4, Link: link.Model{BitsPerSecond: 1e3, Efficiency: 1}})
	h, err := c.Spawn("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Wait()
	// A second of work but megabytes of state over a 1 kb/s link.
	d := cm.Advise(h, time.Second, 8<<20)
	if d.Migrate {
		t.Errorf("migration advised despite transfer cost: %+v", d)
	}
}

func TestAdviseAccountsForLoad(t *testing.T) {
	c, cm := policyCluster(t)
	cm.SetSpec("fast", NodeSpec{Speed: 1, Link: link.Ethernet100}) // same speed
	// Overload the "fast" node so it is actually worse.
	var parked []*Handle
	for i := 0; i < 4; i++ {
		h, err := c.Spawn("fast")
		if err != nil {
			t.Fatal(err)
		}
		parked = append(parked, h)
	}
	h, err := c.Spawn("slow")
	if err != nil {
		t.Fatal(err)
	}
	d := cm.Advise(h, time.Minute, 1<<16)
	if d.Migrate {
		t.Errorf("advised migrating onto an overloaded equal-speed node: %+v", d)
	}
	h.Wait()
	for _, p := range parked {
		p.Wait()
	}
}

func TestAdviseEmptyCluster(t *testing.T) {
	e, _ := core.NewEngine(slowLoop, minic.DefaultPolicy)
	c := NewCluster(e)
	c.Configure = func(p *vm.Process) { p.MaxSteps = 50_000_000 }
	c.AddNode("only", arch.Ultra5)
	cm := NewCostModel(c)
	h, err := c.Spawn("only")
	if err != nil {
		t.Fatal(err)
	}
	d := cm.Advise(h, time.Minute, 1024)
	if d.Migrate {
		t.Error("advised migration with no alternative node")
	}
	h.Wait()
}
