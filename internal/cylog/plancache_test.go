package cylog

import (
	"sync"
	"testing"
	"testing/quick"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// planCacheEngine builds an engine over the standard differential program
// with enough edge facts for the planner to have real statistics to chew on.
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
// lookups under an unchanged stats-epoch key return the same
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

// TestPlanCacheInvalidationProperty is the invalidation property test: after
// any stats-epoch bump of a relation in the rule's body, the old plan is
// never served again — the next lookup misses, recompiles, and publishes
// under the new key. Randomized over how much churn it takes to drift the
// estimates past the bump threshold.
func TestPlanCacheInvalidationProperty(t *testing.T) {
	f := func(extra []uint16) bool {
		e := planCacheEngine(t, 48)
		r := e.analysis.Program.Rules[0] // reach(X,Y) :- edge(X,Y).
		var s Stats
		stale := e.cachedPlan(r, -1, &s)
		keyBefore := e.ruleStatsKey(r)

		edge := e.db.Relation("edge")
		epochBefore := edge.StatsEpoch()
		// Churn the body relation until its stats epoch bumps. The drift
		// threshold guarantees this terminates: row count grows without
		// bound while the marker stays fixed.
		i := 0
		for edge.StatsEpoch() == epochBefore {
			v := 1000 + i
			if len(extra) > 0 {
				v = 1000 + int(extra[i%len(extra)]) + i
			}
			if _, err := edge.Insert(relstore.NewTuple(v, v+1)); err != nil {
				t.Fatal(err)
			}
			i++
		}

		if got := e.ruleStatsKey(r); got == keyBefore {
			t.Log("stats epoch bumped but the rule's cache key did not change")
			return false
		}
		var after Stats
		fresh := e.cachedPlan(r, -1, &after)
		if fresh == stale {
			t.Log("stale plan served after a stats-epoch bump")
			return false
		}
		if after.PlanCacheMisses == 0 || after.PlanCacheHits != 0 {
			t.Logf("post-bump lookup should be a pure miss, stats %+v", after)
			return false
		}
		// The recompiled plan is now the published one.
		if again := e.cachedPlan(r, -1, &after); again != fresh {
			t.Log("post-bump plan not pointer-stable")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestPlanCacheEpochBumpCountsMisses asserts the same invariant black-box
// through the run loop: any run that observes stats-epoch bumps
// (StatsEpochBumps > 0) and evaluates rules must also record plan-cache
// misses — a bump always retires cached plans before they can be reused.
func TestPlanCacheEpochBumpCountsMisses(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 32; i++ {
			e.AddFact("edge", round*100+i, round*100+i+1)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		s := e.Stats()
		if s.StatsEpochBumps > 0 && s.PlanCacheMisses == 0 {
			t.Fatalf("round %d: %d epoch bumps but zero plan-cache misses (stale plans reused), stats %+v",
				round, s.StatsEpochBumps, s)
		}
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
