package types_test

import (
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/minic"
	"repro/internal/types"
	"repro/internal/workload"
)

// workloadSources are the four benchmark programs at test size.
func workloadSources() []string {
	return []string{
		workload.LinpackSource(48, false),
		workload.BitonicSource(256, 1),
		workload.MutatingShardsSource(16, 12, 1<<30),
		workload.WriteRateSource(16, 12, 2, 1<<30),
	}
}

func TestWorkloadScalarRunsArePacked(t *testing.T) {
	for _, src := range workloadSources() {
		prog, err := minic.Compile(src, minic.PollPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < prog.TI.Len(); i++ {
			ty, _ := prog.TI.At(i)
			if ty.IsVoid() || !ty.Complete() {
				continue // never the type of a memory block
			}
			for _, m := range arch.Machines() {
				types.CheckPackedRuns(t, ty, m)
			}
		}
	}
}

// TestConcurrentCompile compiles the workload programs from eight
// goroutines at once: the structural-type interners are process-global
// and every compile goes through them. Run under -race.
func TestConcurrentCompile(t *testing.T) {
	srcs := workloadSources()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, src := range srcs {
				prog, err := minic.Compile(src, minic.PollPolicy{})
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < prog.TI.Len(); i++ {
					ty, _ := prog.TI.At(i)
					if ty.Kind == types.KPointer && types.PointerTo(ty.Elem) != ty {
						t.Errorf("pointer to %s interned twice", ty.Elem)
					}
				}
			}
		}()
	}
	wg.Wait()
}
