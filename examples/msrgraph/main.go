// MSR graph visualization: runs the example program of the paper's
// Figure 1 up to the migration point in foo (fifth iteration), builds the
// explicit Memory Space Representation graph of the process snapshot —
// vertices are memory blocks, edges are pointer references — prints it,
// optionally as Graphviz DOT, and then completes the migration to a
// machine of opposite endianness over a migration session, showing the
// restored graph is isomorphic.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/msr"
	"repro/internal/session"
	"repro/internal/vm"
)

// figure1 is the example program of the paper's Figure 1(a), with the
// poll-point placed right before the allocation at line 20, as in the
// paper's Section 3.2 walkthrough.
const figure1 = `
	struct node {
		float data;
		struct node *link;
	};
	struct node *first, *last;

	void foo(struct node **p, int **q) {
		migrate_here();
		*p = (struct node *) malloc(sizeof(struct node));
		(*p)->data = 10.0;
		(**q)++;
	}

	int main() {
		int i;
		int a, *b;
		struct node *parray[10];
		a = 1;
		b = &a;
		for (i = 0; i < 10; i++) {
			foo(parray + i, &b);
			first = parray[0];
			last = parray[i];
			first->link = last;
			if (i > 0) parray[i]->link = parray[i-1];
		}
		return 0;
	}
`

func main() {
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of the listing")
	flag.Parse()

	e, err := core.NewEngine(figure1, minic.PollPolicy{})
	if err != nil {
		log.Fatal(err)
	}

	// Run until the fifth poll (the snapshot of Figure 1(b): the for
	// loop has executed four times, four heap nodes exist).
	p, err := e.NewProcess(arch.DEC5000)
	if err != nil {
		log.Fatal(err)
	}
	p.MaxSteps = 1_000_000
	polls := 0
	p.PollHook = func(*vm.Process, *minic.Site) bool {
		polls++
		return polls == 5
	}
	res, err := p.Run()
	if err != nil {
		log.Fatal(err)
	}
	if !res.Migrated {
		log.Fatal("program finished before the snapshot point")
	}

	g, err := msr.BuildGraph(p.Space, p.Table)
	if err != nil {
		log.Fatal(err)
	}
	if *dot {
		fmt.Print(g.Dot())
	} else {
		st := g.Stats(p.Mach)
		fmt.Printf("MSR snapshot on %s before the 5th allocation:\n", p.Mach.Name)
		fmt.Printf("  %d memory blocks (%v per segment), %d pointer edges, %d data bytes\n",
			st.Blocks, st.PerSegment, st.Edges, st.Bytes)
		fmt.Println()
		for _, v := range g.Vertices {
			name := v.Name
			if name == "" {
				name = "(heap)"
			}
			fmt.Printf("  %-12s %-10s %s x%d\n", v.ID, name, v.Type, v.Count)
		}
		fmt.Println()
		for _, edge := range g.Edges {
			fmt.Printf("  %s[%d] -> %s[%d]\n", edge.From, edge.FromOrdinal, edge.To, edge.ToOrdinal)
		}
	}

	// Complete the migration to the big-endian SPARC 20 and compare.
	q, _, timing, err := session.Transfer(e, "figure1", p, arch.SPARC20, session.Config{})
	if err != nil {
		log.Fatal(err)
	}
	g2, err := msr.BuildGraph(q.Space, q.Table)
	if err != nil {
		log.Fatal(err)
	}
	if g.Canonical() != g2.Canonical() {
		log.Fatal("restored graph differs from the source snapshot")
	}
	fmt.Printf("\nmigrated to %s, %s\n", q.Mach.Name, timing)
	fmt.Printf("restored on %s: MSR graph is isomorphic to the source snapshot\n", q.Mach.Name)
	res2, err := q.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed to completion with exit code %d\n", res2.ExitCode)
}
