package cylog_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
)

// The differentials' random inputs are mostly too small for the pool to
// split a variant (minSplitTuples is 128). These tests drive the incremental
// program through inputs large enough that every worker count above one
// splits both full passes and delta frontiers, and hold every run to what the
// one-worker engine does on the same input.

// workerRun is what one Run or RunIncremental of the split workload leaves
// behind.
type workerRun struct {
	ids   []string            // returned pending request IDs, in order
	facts map[string][]string // every relation's sorted tuples
	stats cylog.Stats
}

// runSplitWorkload drives incrementalProgram on an engine with the given
// worker count: 300 nodes in chains of four, a full Run, two incremental
// rounds that each answer half of the pending label requests (the first also
// adds 300 nodes in chains), and a closing full Run. When check is set, the
// engine is checked against the from-scratch reference after every run.
func runSplitWorkload(t *testing.T, parallelism int, check bool) []workerRun {
	t.Helper()
	e, err := cylog.NewEngine(cylog.MustParse(cylog.IncrementalProgram))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(parallelism)
	addChains := func(from, to int) {
		for n := from; n < to; n++ {
			if err := e.AddFact("node", n); err != nil {
				t.Fatal(err)
			}
			if n%4 != 3 {
				if err := e.AddFact("edge", n, n+1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var runs []workerRun
	record := func(reqs []cylog.OpenRequest, err error) []cylog.OpenRequest {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if check {
			checkReference(t, e)
		}
		r := workerRun{facts: make(map[string][]string), stats: e.Stats()}
		for _, req := range reqs {
			r.ids = append(r.ids, req.ID)
		}
		for _, name := range e.Database().Names() {
			for _, tup := range e.Facts(name) {
				r.facts[name] = append(r.facts[name], tup.String())
			}
		}
		runs = append(runs, r)
		return reqs
	}
	answerHalf := func(reqs []cylog.OpenRequest) *cylog.AnswerBatch {
		t.Helper()
		batch := e.NewAnswerBatch()
		for i := 0; i < len(reqs); i += 2 {
			if err := batch.Answer(reqs[i].ID, labelAnswer(reqs[i])); err != nil {
				t.Fatal(err)
			}
		}
		return batch
	}

	addChains(0, 300)
	reqs := record(e.Run())
	batch := answerHalf(reqs)
	addChains(300, 600)
	reqs = record(e.RunIncremental(batch))
	record(e.RunIncremental(answerHalf(reqs)))
	record(e.Run())
	return runs
}

// loopCounters are the Stats the stratum loop's merge step owns. They count
// what a run derives, admits and retracts, which no worker count may change;
// the join-side counters (scans versus probes inside split variants) and
// ParallelTasks are free to differ.
type loopCounters struct {
	Iterations, RuleEvaluations, DerivedFacts, OpenRequests       int
	SkippedStrata, SeededDeltas, RetractedTuples, ReDerivedTuples int
}

func countersOf(s cylog.Stats) loopCounters {
	return loopCounters{
		Iterations: s.Iterations, RuleEvaluations: s.RuleEvaluations,
		DerivedFacts: s.DerivedFacts, OpenRequests: s.OpenRequests,
		SkippedStrata: s.SkippedStrata, SeededDeltas: s.SeededDeltas,
		RetractedTuples: s.RetractedTuples, ReDerivedTuples: s.ReDerivedTuples,
	}
}

// TestSplitRoundsMatchOneWorker checks that a pool which splits its variants
// leaves, after every run, the same facts and returns the same pending
// request IDs in the same order as the one-worker engine, which itself
// matches the from-scratch reference.
func TestSplitRoundsMatchOneWorker(t *testing.T) {
	want := runSplitWorkload(t, 1, true)
	if len(want[0].ids) == 0 {
		t.Fatal("workload generated no requests")
	}
	for _, par := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			got := runSplitWorkload(t, par, false)
			for i := range want {
				if !slices.Equal(got[i].ids, want[i].ids) {
					t.Errorf("run %d: request IDs differ from one worker's:\n got %v\nwant %v", i, got[i].ids, want[i].ids)
				}
				for name, ws := range want[i].facts {
					if gs := got[i].facts[name]; !slices.Equal(gs, ws) {
						t.Errorf("run %d: %s holds %d facts, one worker holds %d", i, name, len(gs), len(ws))
					}
				}
			}
		})
	}
}

// TestStatsMatchAcrossWorkers pins the Stats contract of the single stratum
// loop: every run counts the same loop counters at every worker count,
// ParallelTasks stays zero at one worker, and on a pool every rule variant is
// dispatched as at least one task — more on this workload, whose variants
// are split.
func TestStatsMatchAcrossWorkers(t *testing.T) {
	want := runSplitWorkload(t, 1, false)
	for i, r := range want {
		if r.stats.ParallelTasks != 0 {
			t.Errorf("run %d: one worker dispatched %d parallel tasks", i, r.stats.ParallelTasks)
		}
	}
	if want[0].stats.DerivedFacts == 0 {
		t.Fatal("workload derived nothing")
	}
	for _, par := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			got := runSplitWorkload(t, par, false)
			split := false
			for i := range want {
				if g, w := countersOf(got[i].stats), countersOf(want[i].stats); g != w {
					t.Errorf("run %d: loop counters differ from one worker's:\n got %+v\nwant %+v", i, g, w)
				}
				s := got[i].stats
				if s.ParallelTasks < s.RuleEvaluations {
					t.Errorf("run %d: %d parallel tasks for %d rule evaluations", i, s.ParallelTasks, s.RuleEvaluations)
				}
				split = split || s.ParallelTasks > s.RuleEvaluations
			}
			if !split {
				t.Error("no run split a variant: the workload no longer exercises splitting")
			}
		})
	}
}
