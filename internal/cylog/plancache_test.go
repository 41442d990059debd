package cylog

import (
	"math/bits"
	"sync"
	"testing"
	"testing/quick"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// planCacheEngine builds an engine over the standard differential program
// with the given number of edge facts (at most 16 of them distinct).
func planCacheEngine(t *testing.T, facts int) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < facts; i++ {
		if err := e.AddFact("edge", i%16, (i+5)%16); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPlanCachePointerIdentity pins the cache's hit contract: repeated
// lookups under an unchanged cardinality-bucket key return the same
// *compiledPlan, and a hit is counted while the plan is served.
func TestPlanCachePointerIdentity(t *testing.T) {
	e := planCacheEngine(t, 64)
	r := e.analysis.Program.Rules[0]
	var s Stats
	p1 := e.cachedPlan(r, -1, &s)
	p2 := e.cachedPlan(r, -1, &s)
	if p1 != p2 {
		t.Fatalf("back-to-back lookups returned distinct plans %p vs %p", p1, p2)
	}
	if s.PlanCacheHits == 0 {
		t.Fatalf("second lookup should be a hit, stats %+v", s)
	}
	// Distinct delta variants are distinct cache entries under the same key.
	pd := e.cachedPlan(r, 0, &s)
	if pd == p1 {
		t.Fatal("delta variant shared the unrestricted plan")
	}
	if again := e.cachedPlan(r, 0, &s); again != pd {
		t.Fatalf("delta-variant lookup not pointer-stable: %p vs %p", again, pd)
	}
}

// cardBucket is the plan cache's cardinality bucket of a relation.
func cardBucket(rel *relstore.Relation) int { return bits.Len(uint(rel.Len())) }

// TestPlanCacheInvalidationProperty is the invalidation property test: once
// a relation in the rule's body crosses a power of two, the old plan is
// never served again — the next lookup misses, recompiles, and publishes
// under the new key. Randomized over the tuples that grow the relation.
func TestPlanCacheInvalidationProperty(t *testing.T) {
	f := func(extra []uint16) bool {
		e := planCacheEngine(t, 48)
		r := e.analysis.Program.Rules[0] // reach(X,Y) :- edge(X,Y).
		var s Stats
		stale := e.cachedPlan(r, -1, &s)
		keyBefore := e.rulePlanKey(r)

		edge := e.db.Relation("edge")
		bucket := cardBucket(edge)
		// Grow the body relation until its row count crosses a power of two;
		// the values grow with i, so new tuples keep arriving.
		for i := 0; cardBucket(edge) == bucket; i++ {
			v := 1000 + i
			if len(extra) > 0 {
				v = 1000 + int(extra[i%len(extra)]) + i
			}
			if _, err := edge.Insert(relstore.NewTuple(v, v+1)); err != nil {
				t.Fatal(err)
			}
		}

		if got := e.rulePlanKey(r); got == keyBefore {
			t.Log("edge crossed a power of two but the rule's cache key did not change")
			return false
		}
		var after Stats
		fresh := e.cachedPlan(r, -1, &after)
		if fresh == stale {
			t.Log("stale plan served after a bucket change")
			return false
		}
		if after.PlanCacheMisses == 0 || after.PlanCacheHits != 0 {
			t.Logf("post-change lookup should be a pure miss, stats %+v", after)
			return false
		}
		// The recompiled plan is now the published one.
		if again := e.cachedPlan(r, -1, &after); again != fresh {
			t.Log("post-change plan not pointer-stable")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPlanCacheGrowthWithinBucketHits pins the other half of the key: a body
// relation that grows without crossing a power of two keeps the rule's
// cached plan.
func TestPlanCacheGrowthWithinBucketHits(t *testing.T) {
	e := planCacheEngine(t, 48)
	r := e.analysis.Program.Rules[0] // reach(X,Y) :- edge(X,Y).
	edge := e.db.Relation("edge")
	if got := edge.Len(); got != 16 {
		t.Fatalf("edge holds %d tuples, want 16", got)
	}
	p := e.cachedPlan(r, -1, nil)
	for v := 1000; edge.Len() < 31; v++ {
		if _, err := edge.Insert(relstore.NewTuple(v, v+1)); err != nil {
			t.Fatal(err)
		}
	}
	var s Stats
	if got := e.cachedPlan(r, -1, &s); got != p || s.PlanCacheHits != 1 || s.PlanCacheMisses != 0 {
		t.Fatalf("lookup after growth from 16 to 31 tuples: same plan %v, stats %+v; want a hit", got == p, s)
	}
}

// TestPlanCacheShrinkAcrossBucketMisses covers a body relation that loses
// rows: emptying it crosses every power of two below its size, so the next
// lookup of a rule reading it is a pure miss.
func TestPlanCacheShrinkAcrossBucketMisses(t *testing.T) {
	e := planCacheEngine(t, 48)
	r := e.analysis.Program.Rules[1] // reach(X, Z) :- reach(X, Y), edge(Y, Z).
	stale := e.cachedPlan(r, -1, nil)
	reach := e.db.Relation("reach")
	if cardBucket(reach) == 0 {
		t.Fatal("reach is empty before the shrink")
	}
	reach.Clear()
	var s Stats
	if got := e.cachedPlan(r, -1, &s); got == stale || s.PlanCacheMisses != 1 || s.PlanCacheHits != 0 {
		t.Fatalf("lookup after reach emptied: stale plan %v, stats %+v; want a pure miss", got == stale, s)
	}
}

// TestPlanCacheBucketChangeCountsMisses asserts the invalidation invariant
// black-box through the run loop: a run whose base relation has crossed a
// power of two since the previous run records plan-cache misses — the
// change retires the cached plans before they can be reused.
func TestPlanCacheBucketChangeCountsMisses(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	edge := e.db.Relation("edge")
	last := -1
	for round := 0; round < 6; round++ {
		for i := 0; i < 32; i++ {
			e.AddFact("edge", round*100+i, round*100+i+1)
		}
		bucket := cardBucket(edge)
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if s := e.Stats(); bucket != last && s.PlanCacheMisses == 0 {
			t.Fatalf("round %d: edge moved to bucket %d but zero plan-cache misses (stale plans reused), stats %+v",
				round, bucket, s)
		}
		last = bucket
	}
}

// TestPlanCacheConcurrentPointerIdentity is the -race workout for the cache:
// many goroutines race cold lookups of the same rule variants. Losers of the
// publish race must adopt the winner's plan, so every goroutine observes the
// same pointer per (rule, delta) pair.
func TestPlanCacheConcurrentPointerIdentity(t *testing.T) {
	e := planCacheEngine(t, 64)
	rules := e.analysis.Program.Rules
	const goroutines = 16
	got := make([][]*compiledPlan, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, r := range rules {
				got[g] = append(got[g], e.cachedPlan(r, -1, nil))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range got[0] {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutine %d saw plan %p for rule %d, goroutine 0 saw %p",
					g, got[g][i], i, got[0][i])
			}
		}
	}
}
