// Package sched models the distributed process migration environment of
// the paper's Section 2: a set of nodes (machines) running migratable
// processes, and a scheduler that performs process management and sends
// migration requests to processes.
//
// The scheduler conducts a migration exactly as the paper describes: the
// destination node is invoked to wait for the execution and memory states
// of the migrating process; the migrating process collects that
// information at its next poll-point and sends it; after successful
// transmission the source process terminates while the new process
// restores the state and resumes from the migration point.
//
// Nodes here live in one OS process connected by in-memory transports,
// which keeps experiments deterministic; cmd/migd runs the same protocol
// between real OS processes over TCP.
package sched

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/session"
	"repro/internal/vm"
)

// Node is one machine in the distributed environment.
type Node struct {
	Name string
	Mach *arch.Machine

	mu     sync.Mutex
	active int
}

// Active returns the number of processes currently hosted by the node,
// the load metric used by the balancing policy.
func (n *Node) Active() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.active
}

func (n *Node) adjust(d int) {
	n.mu.Lock()
	n.active += d
	n.mu.Unlock()
}

// MigrationRecord documents one completed migration of a process.
type MigrationRecord struct {
	From, To string
	Timing   core.Timing
}

// Outcome is the final result of a process's lifetime in the cluster.
type Outcome struct {
	ExitCode   int
	Node       string
	Migrations []MigrationRecord
	Err        error
}

// Handle tracks one process managed by the scheduler.
//
// A process's logical time is its poll count: the paper's scheduler sends a
// request that the process honours at its next poll-point, so "when" a
// request takes effect is a poll, not a wall-clock instant. The handle
// counts polls over every node the process runs on; MigrateAt files a
// request for a given poll, and Cluster.HoldAt parks a new process at a
// given poll until Release — between them a test (or a planner) decides
// what the process will do at poll k without racing its execution.
type Handle struct {
	mu         sync.Mutex
	dest       string         // pending migration destination ("" = none)
	polls      int            // polls taken so far
	at         map[int]string // destinations filed for polls to come
	node       *Node
	migrations []MigrationRecord

	holdAt        int // the poll the process parks at (0 = none)
	held, release chan struct{}

	done chan *Outcome
	once sync.Once
}

// Migrate asks the scheduler to move the process to the named node at its
// next poll-point. A later call overrides an unserved earlier one.
func (h *Handle) Migrate(dest string) {
	h.mu.Lock()
	h.dest = dest
	h.mu.Unlock()
}

// MigrateAt asks the scheduler to move the process to the named node at
// its poll-th poll-point (the first is 1). Filed for a poll the process has
// already passed, the request is never served; filed while the process is
// held at that very poll, it is served on Release.
func (h *Handle) MigrateAt(poll int, dest string) {
	h.mu.Lock()
	if h.at == nil {
		h.at = map[int]string{}
	}
	h.at[poll] = dest
	h.mu.Unlock()
}

// AwaitHold blocks until the process is parked at its Cluster.HoldAt poll.
func (h *Handle) AwaitHold() { <-h.held }

// Release lets a held process go on: it serves whatever request is pending
// for the poll it was parked at. Call it once, after AwaitHold.
func (h *Handle) Release() { close(h.release) }

// poll is the process's poll hook: it advances logical time, parks if this
// is the hold poll, and reports whether a migration is to be served now.
func (h *Handle) poll() bool {
	h.mu.Lock()
	h.polls++
	hold := h.polls == h.holdAt
	h.mu.Unlock()
	if hold {
		close(h.held)
		<-h.release
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if dest, ok := h.at[h.polls]; ok {
		h.dest = dest
		delete(h.at, h.polls)
	}
	return h.dest != ""
}

// pendingDest consumes the pending destination, if any.
func (h *Handle) pendingDest() (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.dest == "" {
		return "", false
	}
	d := h.dest
	h.dest = ""
	return d, true
}

// Where reports the node currently hosting the process.
func (h *Handle) Where() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.node.Name
}

// Wait blocks until the process completes and returns its outcome.
func (h *Handle) Wait() *Outcome { return <-h.done }

func (h *Handle) finish(o *Outcome) {
	h.once.Do(func() {
		h.mu.Lock()
		o.Migrations = append([]MigrationRecord{}, h.migrations...)
		h.mu.Unlock()
		h.done <- o
	})
}

// Cluster is the distributed environment: nodes plus the scheduler state.
type Cluster struct {
	engine *core.Engine

	mu    sync.Mutex
	nodes map[string]*Node
	order []string

	// Configure is applied to every process the cluster creates or
	// restores (step limits, stdout, instrumentation).
	Configure func(*vm.Process)

	// HoldAt, when positive, parks every process spawned from now on at
	// its HoldAt-th poll until Handle.Release.
	HoldAt int
}

// NewCluster builds a cluster running the given engine.
func NewCluster(e *core.Engine) *Cluster {
	return &Cluster{engine: e, nodes: map[string]*Node{}}
}

// AddNode registers a machine under a node name.
func (c *Cluster) AddNode(name string, m *arch.Machine) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := &Node{Name: name, Mach: m}
	c.nodes[name] = n
	c.order = append(c.order, name)
	return n
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[name]
}

// Nodes returns node names in registration order.
func (c *Cluster) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string{}, c.order...)
}

// Spawn starts the program on the named node and returns its handle.
func (c *Cluster) Spawn(nodeName string) (*Handle, error) {
	node := c.Node(nodeName)
	if node == nil {
		return nil, fmt.Errorf("sched: unknown node %q", nodeName)
	}
	proc, err := c.engine.NewProcess(node.Mach)
	if err != nil {
		return nil, err
	}
	if c.Configure != nil {
		c.Configure(proc)
	}
	h := &Handle{node: node, done: make(chan *Outcome, 1),
		holdAt: c.HoldAt, held: make(chan struct{}), release: make(chan struct{})}
	node.adjust(1)
	go c.runLoop(h, node, proc)
	return h, nil
}

// runLoop drives a process through its lifetime, serving migration
// requests as they are granted at poll-points.
func (c *Cluster) runLoop(h *Handle, node *Node, proc *vm.Process) {
	for {
		proc.PollHook = func(*vm.Process, *minic.Site) bool { return h.poll() }
		res, err := proc.Run()
		if err != nil {
			node.adjust(-1)
			h.finish(&Outcome{Node: node.Name, Err: err})
			return
		}
		if !res.Migrated {
			node.adjust(-1)
			h.finish(&Outcome{ExitCode: res.ExitCode, Node: node.Name})
			return
		}

		destName, ok := h.pendingDest()
		if !ok {
			// Request vanished between poll and service; resume locally
			// by restoring on the same node.
			destName = node.Name
		}
		dest := c.Node(destName)
		if dest == nil {
			node.adjust(-1)
			h.finish(&Outcome{Node: node.Name, Err: fmt.Errorf("sched: migration to unknown node %q", destName)})
			return
		}

		// Remote invocation through the session layer: the destination
		// process negotiates and waits for state while the source
		// transmits it through the agreed path.
		q, mig, err := session.Transfer(c.engine, "sched", proc, dest.Mach, session.Config{})
		if err != nil {
			node.adjust(-1)
			h.finish(&Outcome{Node: node.Name, Err: err})
			return
		}

		h.mu.Lock()
		h.migrations = append(h.migrations, MigrationRecord{From: node.Name, To: dest.Name, Timing: mig.Timing})
		h.node = dest
		h.mu.Unlock()

		node.adjust(-1)
		dest.adjust(1)

		// The source process terminates; the restored process continues.
		proc = q
		if c.Configure != nil {
			c.Configure(proc)
		}
		node = dest
	}
}

// pending reports whether a migration request is waiting to be served.
func (h *Handle) pending() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dest != ""
}

// Rebalance plans migrations from the most to the least loaded node until
// the planned loads differ by at most one. Moves take effect at each
// process's next poll-point. It returns the handles asked to move.
func (c *Cluster) Rebalance(handles []*Handle) []*Handle {
	names := c.Nodes()
	if len(names) == 0 {
		return nil
	}
	planned := map[string]int{}
	for _, name := range names {
		planned[name] = c.Node(name).Active()
	}
	onNode := map[string][]*Handle{}
	for _, h := range handles {
		if !h.pending() {
			where := h.Where()
			onNode[where] = append(onNode[where], h)
		}
	}
	var moved []*Handle
	for {
		lo, hi := names[0], names[0]
		for _, n := range names[1:] {
			if planned[n] < planned[lo] {
				lo = n
			}
			if planned[n] > planned[hi] {
				hi = n
			}
		}
		if planned[hi]-planned[lo] <= 1 || len(onNode[hi]) == 0 {
			return moved
		}
		pick := onNode[hi][0]
		onNode[hi] = onNode[hi][1:]
		pick.Migrate(lo)
		planned[hi]--
		planned[lo]++
		moved = append(moved, pick)
	}
}
