// migstate manages saved migration state in a content-addressed
// checkpoint store (internal/store) — the paper's shared-file-system
// transfer mode, as a directory two nodes can both reach: it checkpoints a
// fresh run into the store, lists and describes checkpoint chains at the
// manifest level (which sections, how large, under which hash, present or
// not), and restores any manifest back into a runnable process on any
// machine.
//
// Usage:
//
//	migstate -program prog.mc -store DIR -checkpoint [-after-polls N] [-ref NAME] [-machine NAME]
//	migstate -store DIR -list
//	migstate -store DIR -describe REF|HASH
//	migstate -program prog.mc -store DIR -restore REF|HASH [-machine NAME] [-run]
//
// Exit codes are typed so scripts and CI can tell failure classes apart:
// 0 success, 1 operational error, 2 usage, 3 corrupt state (CRC or
// content-hash mismatch), 4 mismatch (state belongs to a different
// program build). With -run the restored program's own exit code is
// propagated instead.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/collect"
	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/vm"
)

func main() {
	program := flag.String("program", "", "pre-distributed MigC source the state belongs to")
	storeDir := flag.String("store", "", "checkpoint store directory")
	checkpoint := flag.Bool("checkpoint", false, "run the program and checkpoint it into -store")
	afterPolls := flag.Int("after-polls", 1, "with -checkpoint: stop at the N-th poll point")
	refName := flag.String("ref", "", "with -checkpoint: chain name (default: program file base name)")
	machine := flag.String("machine", "amd64", "machine to run/checkpoint/restore on")
	list := flag.Bool("list", false, "list the store's refs and manifests")
	describe := flag.String("describe", "", "describe the checkpoint chain at REF|HASH")
	restore := flag.String("restore", "", "restore the checkpoint at REF|HASH")
	run := flag.Bool("run", false, "with -restore: run the restored process to completion and propagate its exit code")
	flag.Parse()

	switch {
	case *storeDir == "":
		usage()
	case *list:
		cmdList(openStore(*storeDir))
	case *describe != "":
		cmdDescribe(openStore(*storeDir), *describe)
	case *checkpoint:
		if *program == "" {
			usage()
		}
		ref := *refName
		if ref == "" {
			ref = strings.TrimSuffix(filepath.Base(*program), filepath.Ext(*program))
		}
		cmdCheckpoint(openStore(*storeDir), *program, ref, *machine, *afterPolls)
	case *restore != "":
		if *program == "" {
			usage()
		}
		cmdRestore(openStore(*storeDir), *program, *restore, *machine, *run)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: migstate -program prog.mc -store DIR -checkpoint [-after-polls N] [-ref NAME] [-machine NAME]
       migstate -store DIR -list
       migstate -store DIR -describe REF|HASH
       migstate -program prog.mc -store DIR -restore REF|HASH [-machine NAME] [-run]`)
	os.Exit(2)
}

func cmdList(st *store.Store) {
	refs := st.Refs()
	for _, name := range refs {
		h, ok, err := st.Ref(name)
		if err != nil || !ok {
			fail(fmt.Errorf("ref %s: %w", name, err))
		}
		m, err := st.GetManifest(h)
		if err != nil {
			fail(fmt.Errorf("ref %s: %w", name, err))
		}
		fmt.Printf("ref %-20s %s seq %d on %s, %d sections, %d snapshot bytes\n",
			name, h.Short(), m.Seq, m.Machine, len(m.Entries), m.SnapshotBytes())
	}
	blobs, bytes := st.Usage()
	fmt.Printf("%d refs, %d section bodies (%d bytes) in %s\n", len(refs), blobs, bytes, st.Dir())
}

func cmdDescribe(st *store.Store, target string) {
	h, err := st.Resolve(target)
	if err != nil {
		fail(err)
	}
	chain, err := st.Chain(h)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s resolves to %s (chain of %d)\n", target, h.Short(), len(chain))
	for _, m := range chain {
		mh := m.Hash()
		parent := "root"
		if !m.Parent.IsZero() {
			parent = "parent " + m.Parent.Short()
		}
		fmt.Printf("seq %d  %s  program %08x on %s, %s\n",
			m.Seq, mh.Short(), m.ProgramDigest, m.Machine, parent)
		for _, e := range m.Entries {
			present := "missing or damaged"
			if st.HoldsBlob(e.Hash, int64(e.Length)) {
				present = "present"
			}
			fmt.Printf("    %-8s #%-3d %8d bytes  %s  %s\n",
				e.Kind, e.ID, e.Length, e.Hash.Short(), present)
		}
	}
}

func cmdCheckpoint(st *store.Store, program, ref, machine string, afterPolls int) {
	engine := compile(program)
	mach := lookupMachine(machine)
	p, err := engine.NewProcess(mach)
	if err != nil {
		fail(err)
	}
	p.Stdout = os.Stdout
	p.MaxSteps = 4_000_000_000
	polls := 0
	p.PollHook = func(*vm.Process, *minic.Site) bool {
		polls++
		return polls == afterPolls
	}
	res, err := p.Run()
	if err != nil {
		fail(err)
	}
	if !res.Migrated {
		fail(fmt.Errorf("program completed (exit %d) before its %d-th poll point — nothing to checkpoint",
			res.ExitCode, afterPolls))
	}
	m, h, cst, err := engine.CheckpointProcess(st, p, mach, ref)
	if err != nil {
		fail(err)
	}
	fmt.Printf("checkpointed %s seq %d after %d polls on %s: %s (%s)\n",
		ref, m.Seq, polls, mach.Name, h.Short(), cst)
}

func cmdRestore(st *store.Store, program, target, machine string, runToExit bool) {
	engine := compile(program)
	mach := lookupMachine(machine)
	h, err := st.Resolve(target)
	if err != nil {
		fail(err)
	}
	p, timing, err := engine.RestoreFromStore(st, h, mach)
	if err != nil {
		fail(err)
	}
	fmt.Printf("restored %s on %s: %d snapshot bytes, hashes and CRCs OK, restore %v\n",
		h.Short(), mach.Name, timing.Bytes, timing.Restore)
	if !runToExit {
		return
	}
	p.Stdout = os.Stdout
	p.MaxSteps = 4_000_000_000
	res, err := p.Run()
	if err != nil {
		fail(err)
	}
	if res.Migrated {
		fail(errors.New("restored process stopped at a migration point without a hook"))
	}
	fmt.Printf("completed with exit code %d\n", res.ExitCode)
	os.Exit(res.ExitCode)
}

func compile(program string) *core.Engine {
	src, err := os.ReadFile(program)
	if err != nil {
		fail(err)
	}
	engine, err := core.NewEngine(string(src), minic.DefaultPolicy)
	if err != nil {
		fail(fmt.Errorf("%s: %w", program, err))
	}
	return engine
}

func openStore(dir string) *store.Store {
	st, err := store.Open(dir, obs.Default)
	if err != nil {
		fail(err)
	}
	return st
}

func lookupMachine(name string) *arch.Machine {
	m := arch.Lookup(name)
	if m == nil {
		var names []string
		for _, r := range arch.Machines() {
			names = append(names, r.Name)
		}
		fmt.Fprintf(os.Stderr, "migstate: unknown machine %q (have %s)\n", name, strings.Join(names, ", "))
		os.Exit(2)
	}
	return m
}

// fail reports err with its failure class and exits with the class's
// typed code: 3 for corrupt state, 4 for a program mismatch, 1 otherwise.
func fail(err error) {
	switch {
	case errors.Is(err, collect.ErrCorruptStream), errors.Is(err, store.ErrCorrupt),
		errors.Is(err, store.ErrBadManifest), errors.Is(err, snapshot.ErrChecksum),
		errors.Is(err, snapshot.ErrBadSnapshot), errors.Is(err, snapshot.ErrBadSection),
		errors.Is(err, snapshot.ErrTruncated):
		fmt.Fprintln(os.Stderr, "migstate: corrupt-stream:", err)
		os.Exit(3)
	case errors.Is(err, collect.ErrMismatch), errors.Is(err, core.ErrProgramMismatch):
		fmt.Fprintln(os.Stderr, "migstate: program-mismatch:", err)
		os.Exit(4)
	}
	fmt.Fprintln(os.Stderr, "migstate:", err)
	os.Exit(1)
}
