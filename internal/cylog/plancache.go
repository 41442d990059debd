package cylog

import (
	"math/bits"
	"sync"
)

// Compiled plan cache
//
// Re-running the greedy planner for every evaluation pass of every rule
// variant is cheap per call, but the oracle loop's steady state would call it
// for every rule variant of every fixpoint iteration of every round. Plans
// only change when their inputs do, and the planner's inputs are exactly (a)
// the rule and delta variant and (b) the cardinalities of the closed positive
// body relations, which break ties between equally-bound atoms. The cache
// keys on those: per rule, a fingerprint of the body relations' cardinality
// buckets — the power of two each row count lies under (bits.Len) — guards a
// small deltaAtom→plan map. A body relation crossing a power of two changes
// the fingerprint and atomically retires every plan cached under the old one
// — a stale plan is never served after a bucket change (the invariant the
// plan-cache property tests assert).
//
// Staleness within a bucket is deliberate: two relations of one run may trade
// places by size without either crossing a power of two, so a cached plan may
// order them by outdated cardinalities. That can only cost performance, never
// correctness — reordering closed positive atoms between barriers cannot
// change fixpoints or request IDs (the differential tests check every plan
// shape against the from-scratch reference evaluator).
//
// Concurrency: lookups happen on evaluation workers while the coordinator
// holds e.mu; rulePlans carries its own RWMutex so concurrent lookups of the
// same rule share the read lock, and the first planner to miss publishes the
// plan for everyone (later racers adopt the published plan, so cache hits are
// pointer-identical — asserted under -race by the property tests).

// compiledPlan is one immutable cached execution plan. Cache hits return the
// same *compiledPlan pointer; the steps slice is never mutated after insert.
type compiledPlan struct {
	steps []planStep
}

// rulePlans caches one rule's compiled plans under the cardinality key that
// was current when they were built. byDelta maps the delta variant (body
// index of the restricted atom, -1 for unrestricted) to its plan; a key
// change retires the whole map at once.
type rulePlans struct {
	mu      sync.RWMutex
	key     uint64
	byDelta map[int]*compiledPlan
}

// FNV-1a over the body relations' cardinality buckets. Same constants as
// relstore's tuple hashing.
const (
	planFNVOffset = 14695981039346656037
	planFNVPrime  = 1099511628211
)

// rulePlanKey fingerprints the cardinality buckets of the relations whose
// sizes influence the rule's plan (the closed positive body atoms'
// relations, collected once at construction into planRels).
func (e *Engine) rulePlanKey(r *Rule) uint64 {
	h := uint64(planFNVOffset)
	for _, rel := range e.planRels[r] {
		h = (h ^ uint64(bits.Len(uint(rel.Len())))) * planFNVPrime
	}
	return h
}

// cachedPlan returns the rule's compiled plan for the given delta variant,
// planning and publishing on miss. The first plan published under a key wins:
// concurrent planners that lose the publish race adopt the winner, so every
// hit for one key is pointer-identical. stats may be nil for callers outside
// a run (no counters are recorded then).
func (e *Engine) cachedPlan(r *Rule, deltaAtom int, stats *Stats) *compiledPlan {
	rp := e.planCache[r]
	key := e.rulePlanKey(r)

	rp.mu.RLock()
	if rp.key == key {
		if p, ok := rp.byDelta[deltaAtom]; ok {
			rp.mu.RUnlock()
			if stats != nil {
				stats.PlanCacheHits++
			}
			return p
		}
	}
	rp.mu.RUnlock()

	p := &compiledPlan{steps: planRule(r, deltaAtom, e.catalog())}
	if stats != nil {
		stats.PlanCacheMisses++
	}
	rp.mu.Lock()
	if rp.key != key || rp.byDelta == nil {
		rp.key = key
		rp.byDelta = make(map[int]*compiledPlan, len(r.Body)+1)
	}
	if prev, ok := rp.byDelta[deltaAtom]; ok {
		p = prev
	} else {
		rp.byDelta[deltaAtom] = p
	}
	rp.mu.Unlock()
	return p
}
