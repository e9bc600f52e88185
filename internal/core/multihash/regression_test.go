package multihash_test

import (
	"fmt"
	"testing"

	"repro/internal/arena"
	"repro/internal/core/multihash"
	"repro/internal/helping"
	"repro/internal/registry"
	"repro/internal/sched"
)

// TestAnnounceSplitPreemption pins the wrong-bucket splice bug found during
// development: the announce's scan-state reset and pid publish are separate
// writes, and a preemption between them let an intervening same-processor
// process leave a shared checkpoint pointing into its own operation's
// bucket — the insert of key 8 was spliced into key 9's bucket and became
// invisible to subsequent deletes and searches. The fix removed the shared
// checkpoint (hash scans run privately from the bucket head); this exact
// seed reproduces the original interleaving.
func TestAnnounceSplitPreemption(t *testing.T) {
	seed := int64(-4628020244947129241)
	const (
		nCPU   = 3
		nProcs = 6
		nOps   = 8
	)
	s := sched.New(sched.Config{Processors: nCPU, Seed: seed, MemWords: 1 << 17})
	ar, err := arena.New(s.Mem(), 256, nProcs)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := multihash.New(s.Mem(), ar, multihash.Config{Processors: nCPU, Procs: nProcs, Buckets: 4, Mode: helping.Priority})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.SeedKeys([]uint64{2, 5, 9}); err != nil {
		t.Fatal(err)
	}
	ar.Freeze()
	chk := registry.NewStructChecker(registry.ModelSorted, tb, s.Mem())
	rng := s.Rand()
	for p := 0; p < nProcs; p++ {
		p := p
		s.Spawn(sched.JobSpec{
			Name: fmt.Sprintf("w%d", p), CPU: p % nCPU, Prio: sched.Priority(rng.Intn(6)), Slot: p,
			At: rng.Int63n(400), AfterSlices: -1,
			Body: func(e *sched.Env) {
				for op := 0; op < nOps; op++ {
					key := uint64(1 + e.Rand().Intn(12))
					var ok bool
					switch e.Rand().Intn(3) {
					case 0:
						chk.Begin(p, registry.Op{Code: registry.OpInsert, Key: key})
						ok = tb.Insert(e, key, key)
					case 1:
						chk.Begin(p, registry.Op{Code: registry.OpDelete, Key: key})
						ok = tb.Delete(e, key)
					default:
						chk.Begin(p, registry.Op{Code: registry.OpSearch, Key: key})
						ok = tb.Search(e, key)
					}
					chk.End(p, registry.Result{OK: ok})
				}
			},
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	chk.Finish()
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}
}
