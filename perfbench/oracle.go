package main

// Quiescent conservation oracles for native runs. They hold for any
// linearizable execution, so they need no knowledge of the interleaving:
//
//   - sorted sets: per-key flow balance — seeded + successful inserts −
//     successful deletes equals final membership, and the snapshot is
//     strictly sorted;
//   - queues and stacks: the generator emits unique values, so the
//     multiset of values put in equals the multiset taken out plus the
//     multiset remaining;
//   - MWCAS word arrays: each word ends at its initial value plus the
//     deltas of the successful transactions that touched it.

import (
	"fmt"
	"slices"

	"repro/internal/registry"
)

// conserved applies the object's conservation law to a finished run: ops
// and res are index-aligned per slot, snap is the quiescent snapshot.
func conserved(d *registry.Descriptor, cfg registry.Config, ops [][]registry.Op, res [][]registry.Result, snap []uint64) error {
	switch d.Model {
	case registry.ModelSorted:
		return sortedFlow(cfg.SeedKeys, ops, res, snap)
	case registry.ModelFIFO, registry.ModelLIFO:
		return valuesConserved(ops, res, snap)
	case registry.ModelWords:
		return deltasAccounted(cfg.Words, cfg.Initial, ops, res, snap)
	}
	return fmt.Errorf("no conservation oracle for model %v", d.Model)
}

func sortedFlow(seed []uint64, ops [][]registry.Op, res [][]registry.Result, snap []uint64) error {
	for i := 1; i < len(snap); i++ {
		if snap[i-1] >= snap[i] {
			return fmt.Errorf("snapshot not strictly sorted at %d: %v", i, snap)
		}
	}
	balance := map[uint64]int{}
	for _, k := range seed {
		balance[k]++
	}
	for slot := range res {
		for i, r := range res[slot] {
			if !r.OK {
				continue
			}
			switch op := ops[slot][i]; op.Code {
			case registry.OpInsert:
				balance[op.Key]++
			case registry.OpDelete:
				balance[op.Key]--
			}
		}
	}
	final := map[uint64]bool{}
	for _, k := range snap {
		final[k] = true
		if _, seen := balance[k]; !seen {
			return fmt.Errorf("key %d in the final snapshot was never seeded or inserted", k)
		}
	}
	for k, b := range balance {
		want := 0
		if final[k] {
			want = 1
		}
		if b != want {
			return fmt.Errorf("key %d: seeded+inserted-deleted = %d but final membership = %d", k, b, want)
		}
	}
	return nil
}

func valuesConserved(ops [][]registry.Op, res [][]registry.Result, snap []uint64) error {
	var in, out []uint64
	for slot := range res {
		for i, r := range res[slot] {
			if !r.OK {
				continue
			}
			switch op := ops[slot][i]; op.Code {
			case registry.OpEnqueue, registry.OpPush:
				in = append(in, op.Val)
			case registry.OpDequeue, registry.OpPop:
				out = append(out, r.Val)
			}
		}
	}
	out = append(out, snap...)
	slices.Sort(in)
	slices.Sort(out)
	if len(in) != len(out) {
		return fmt.Errorf("%d values put in, %d accounted for (taken out + %d remaining)", len(in), len(out), len(snap))
	}
	for i := range in {
		if in[i] != out[i] {
			return fmt.Errorf("value multisets differ at %d: put in %d, accounted %d", i, in[i], out[i])
		}
	}
	return nil
}

func deltasAccounted(words int, initial []uint64, ops [][]registry.Op, res [][]registry.Result, snap []uint64) error {
	want := make([]uint64, words)
	copy(want, initial)
	for slot := range res {
		for i, r := range res[slot] {
			if !r.OK {
				continue
			}
			op := ops[slot][i]
			for _, w := range op.Words {
				want[w] += op.Delta
			}
		}
	}
	if len(snap) != len(want) {
		return fmt.Errorf("snapshot has %d words, want %d", len(snap), len(want))
	}
	for w := range want {
		if snap[w] != want[w] {
			return fmt.Errorf("word %d = %d, want initial + successful deltas = %d", w, snap[w], want[w])
		}
	}
	return nil
}
