package cylog

import (
	"fmt"
	"sync"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Sharded fixpoint evaluation
//
// runStratumSharded runs one stratum's semi-naive fixpoint across N
// goroutine-confined engine shards. The partitioning unit is the tuple: a
// tuple belongs to shard relstore.ShardOf(t, N) — its value hash mod N — so
// ownership is stable across rounds, strata, runs and processes. Each round:
//
//  1. The coordinator (the single evaluation goroutine, holding e.mu)
//     hash-partitions the round's delta frontier and sends every shard its
//     partition over the shard's inbox channel. On the unrestricted first
//     round of a full pass there is no frontier yet; instead each rule's
//     leading full scan — the atom planShardAtom picks — is hash-partitioned
//     the same way, and rules with no partitionable atom run whole on
//     shard 0.
//  2. Every shard derives its rule variants from its local partition and
//     evaluates them against the shared database, which is read-only for the
//     duration of the round (the same snapshot guarantee the parallel
//     evaluator relies on). Within a shard, variants run on a worker pool of
//     SetParallelism size, so sharding and parallelism compose.
//  3. At the round barrier the shards hand their outputs to the coordinator
//     over their outbox channels. The coordinator is the single-writer
//     merge: it inserts head tuples (deduplicated by the relation), admits
//     open requests (deduplicated by id) and journals nothing — journal ops
//     record ingestions, which never happen during evaluation — in
//     shard-then-plan order, so fixpoints and request IDs are deterministic
//     and byte-identical to the unsharded engine.
//  4. The merged new tuples form the next round's frontier. Each tuple is
//     routed to the shard owning its hash: tuples that stay on the shard
//     that derived them count as Stats.ShardLocalTuples, tuples crossing to
//     another shard as Stats.ShardExchanges. The exchange is the channel
//     send of step 1 — in-process today, the seam a networked transport
//     replaces tomorrow.
//
// The loop terminates like the other evaluators: a round that inserts no new
// tuple is the local fixpoint. SetShards(1) never reaches this file — the
// dispatch in runStratum selects the unsharded paths.

// shardRound is one round of work for one shard.
type shardRound struct {
	// delta is the shard's hash-partition of the round's frontier; the shard
	// derives its rule variants from it locally (semi-naive rounds).
	delta map[string][]relstore.Tuple
	// tasks is the precomputed task list of an unrestricted round — the
	// first iteration of a full pass — whose leading full scans the
	// coordinator hash-partitioned itself.
	tasks []evalTask
	// full marks an unrestricted round: tasks is authoritative, delta nil.
	full bool
}

// shardOutput is what one shard hands the merge writer at the round barrier.
type shardOutput struct {
	// tasks are the rule variants the shard evaluated, aligned with outs.
	tasks []evalTask
	outs  []evalOutput
	// evals counts the delta-round variants the shard built locally;
	// unrestricted rounds are counted once per rule by the coordinator.
	evals int
}

// runStratumSharded evaluates one stratum to a local fixpoint across
// `shards` goroutine-confined shards (see the file comment for the round
// protocol). idx, seed and derived mean what they mean for runStratum.
func (e *Engine) runStratumSharded(idx int, rules []*Rule, seed, derived map[string][]relstore.Tuple, stats *Stats, shards int) error {
	inboxes := make([]chan shardRound, shards)
	outboxes := make([]chan shardOutput, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		// Capacity 1 on both channels keeps the protocol deadlock-free
		// without a draining dance: a shard's send never blocks (the
		// coordinator reads every outbox each round), and closing the
		// inboxes releases every shard wherever it waits.
		in, out := make(chan shardRound, 1), make(chan shardOutput, 1)
		inboxes[s], outboxes[s] = in, out
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range in {
				out <- e.evalShardRound(rules, round)
			}
		}()
	}
	defer func() {
		for _, in := range inboxes {
			close(in)
		}
		wg.Wait()
	}()

	delta := seed
	full := seed == nil
	for {
		stats.Iterations++
		var rounds []shardRound
		if full {
			rounds = e.shardFullRounds(rules, shards, stats)
			stats.RuleEvaluations += len(rules)
		} else {
			rounds = make([]shardRound, shards)
			for s, part := range partitionDelta(delta, shards) {
				rounds[s] = shardRound{delta: part}
			}
		}
		for s, in := range inboxes {
			in <- rounds[s]
		}

		// Round barrier: collect every shard's output and merge
		// single-threaded, in shard-then-plan order.
		newDelta := make(map[string][]relstore.Tuple)
		derivedThisIteration := 0
		for s := 0; s < shards; s++ {
			out := <-outboxes[s]
			stats.RuleEvaluations += out.evals
			for i, o := range out.outs {
				if o.err != nil {
					return o.err
				}
				stats.merge(o.stats)
				r := out.tasks[i].rule
				head := e.db.Relation(r.Head.Predicate)
				for _, t := range o.tuples {
					added, err := head.InsertDerived(t)
					if err != nil {
						return fmt.Errorf("cylog: rule %s produced a tuple that does not match the schema of %s: %w", r, r.Head.Predicate, err)
					}
					if !added {
						continue
					}
					derivedThisIteration++
					newDelta[r.Head.Predicate] = append(newDelta[r.Head.Predicate], t)
					if relstore.ShardOf(t, shards) == s {
						stats.ShardLocalTuples++
					} else {
						stats.ShardExchanges++
					}
				}
				e.admitRequests(o.requests, idx)
			}
		}
		stats.DerivedFacts += derivedThisIteration
		accumulateDerived(derived, newDelta)
		if derivedThisIteration == 0 {
			return nil
		}
		delta = newDelta
		full = false
	}
}

// evalShardRound is the shard-side half of one round: build the shard's rule
// variants from its frontier partition (or take the coordinator's
// precomputed unrestricted tasks) and evaluate them against the shared
// read-only database view. It runs on the shard goroutine and touches no
// engine bookkeeping — head inserts and request admission belong to the
// merge writer.
func (e *Engine) evalShardRound(rules []*Rule, round shardRound) shardOutput {
	tasks := round.tasks
	evals := 0
	if !round.full {
		for _, r := range rules {
			for _, v := range e.ruleVariants(r, round.delta, false) {
				tasks = append(tasks, evalTask{rule: r, v: v})
				evals++
			}
		}
	}
	return shardOutput{tasks: tasks, outs: e.evaluateTasks(tasks, e.parallelism), evals: evals}
}

// shardFullRounds builds every shard's task list for an unrestricted round:
// each rule whose plan leads with a partitionable full scan
// (shardableFullScan) is split into one variant per shard, restricted to the
// hash partition of the leading relation; the union of the partitions is the
// whole relation, so the shards collectively evaluate exactly the
// unrestricted variant. Rules with no partitionable atom — leading barrier,
// open atom, probe-answerable first step — run whole on shard 0, the
// deterministic owner of unpartitionable work.
func (e *Engine) shardFullRounds(rules []*Rule, shards int, stats *Stats) []shardRound {
	rounds := make([]shardRound, shards)
	for s := range rounds {
		rounds[s].full = true
	}
	for _, r := range rules {
		atom, tuples := e.shardableFullScan(r, stats)
		if atom < 0 {
			rounds[0].tasks = append(rounds[0].tasks, evalTask{rule: r, v: ruleVariant{deltaAtom: -1}})
			continue
		}
		for s, part := range relstore.PartitionTuples(tuples, shards) {
			if len(part) == 0 {
				continue
			}
			rounds[s].tasks = append(rounds[s].tasks, evalTask{rule: r, v: ruleVariant{deltaAtom: atom, deltaTuples: part}})
		}
	}
	return rounds
}

// partitionDelta splits a frontier map into one map per shard, routing every
// tuple to the shard owning its hash. Relation slices keep their input order
// within a shard, so the shard-side variant construction is deterministic.
func partitionDelta(delta map[string][]relstore.Tuple, shards int) []map[string][]relstore.Tuple {
	parts := make([]map[string][]relstore.Tuple, shards)
	for s := range parts {
		parts[s] = make(map[string][]relstore.Tuple)
	}
	for rel, ts := range delta {
		for _, t := range ts {
			s := relstore.ShardOf(t, shards)
			parts[s][rel] = append(parts[s][rel], t)
		}
	}
	return parts
}
