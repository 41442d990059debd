package cylog_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
)

// The differentials: whatever path the engine takes — one worker or a pool
// splitting large variants, full or delta-seeded runs, retraction, hashed
// delta frontiers, cost-planned and cached join orders — it must leave
// exactly the facts and pending requests that the from-scratch reference
// evaluator (package reference) derives from the same base facts. Each
// differential drives one program through crowd rounds on every engine
// configuration of the matrix and checks the engine after every round. Every
// round must also derive as many facts (Stats().DerivedFacts) as the
// one-worker engine in the same commit mode: the worker pool must not change
// how much work a round does.

// config is one engine configuration of the differential matrix.
type config struct {
	parallelism int
	// incremental commits each round's answers as a batch through
	// RunIncremental; otherwise they are answered one at a time and the
	// round runs the full fixpoint with Run.
	incremental bool
}

func (c config) String() string {
	return fmt.Sprintf("par%d/incremental=%v", c.parallelism, c.incremental)
}

// matrix is {par 1, 2, 4} x {incremental, full}. par2 is what the service
// runs on a two-core host; par4 gives the pool more workers than cores.
func matrix() []config {
	var out []config
	for _, par := range []int{1, 2, 4} {
		for _, inc := range []bool{true, false} {
			out = append(out, config{parallelism: par, incremental: inc})
		}
	}
	return out
}

// addFunc adds one base fact to the engine under test.
type addFunc func(rel string, vals ...any)

// workload is a program plus how crowd rounds feed it.
type workload struct {
	program string
	// seed adds the initial base facts, derived from two random inputs.
	seed func(a, b []uint8, add addFunc)
	// answer returns the open-column values a worker gives the request.
	answer func(r cylog.OpenRequest) map[string]any
	// between, when set, adds base facts in the same round as the answers.
	between func(round int, a []uint8, add addFunc)
}

// checkRounds runs the workload on one configuration — a full Run, then up
// to rounds answer rounds, each answering the pending requests the picks
// select — and checks the engine against the reference after the first run
// and after every round. It returns each run's DerivedFacts and whether every
// check passed.
func checkRounds(t *testing.T, w workload, cfg config, a, b, picks []uint8, rounds int) ([]int, bool) {
	t.Helper()
	e, err := cylog.NewEngine(cylog.MustParse(w.program))
	if err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(cfg.parallelism)
	add := func(rel string, vals ...any) {
		if err := e.AddFact(rel, vals...); err != nil {
			t.Fatal(err)
		}
	}
	if w.seed != nil {
		w.seed(a, b, add)
	}
	var derived []int
	reqs, err := e.Run()
	for round := 1; ; round++ {
		if err != nil {
			t.Fatal(err)
		}
		derived = append(derived, e.Stats().DerivedFacts)
		if err := reference.Check(e, reference.BaseFacts(e)); err != nil {
			t.Logf("%s: round %d: %v", cfg, round-1, err)
			return derived, false
		}
		if round > rounds || len(reqs) == 0 {
			return derived, true
		}
		batch := e.NewAnswerBatch()
		for _, p := range picks {
			r := reqs[int(p)%len(reqs)]
			// A request picked twice is rejected the second time, on
			// either path.
			if cfg.incremental {
				batch.Answer(r.ID, w.answer(r)) //nolint:errcheck
			} else {
				e.Answer(r.ID, w.answer(r)) //nolint:errcheck
			}
		}
		if w.between != nil {
			w.between(round, a, add)
		}
		if cfg.incremental {
			reqs, err = e.RunIncremental(batch)
		} else {
			reqs, err = e.Run()
		}
	}
}

// runDifferential quick-checks the workload over random inputs and answer
// picks, one subtest per configuration of the matrix. Each input also runs on
// par1 in the same commit mode, whose per-round DerivedFacts the
// configuration must match.
func runDifferential(t *testing.T, w workload, rounds, maxCount int) {
	t.Helper()
	for _, cfg := range matrix() {
		t.Run(cfg.String(), func(t *testing.T) {
			f := func(a, b, picks []uint8) bool {
				if len(picks) == 0 {
					picks = []uint8{0}
				}
				if len(picks) > 6 {
					picks = picks[:6]
				}
				derived, ok := checkRounds(t, w, cfg, a, b, picks, rounds)
				if !ok || cfg.parallelism == 1 {
					return ok
				}
				base := config{parallelism: 1, incremental: cfg.incremental}
				want, ok := checkRounds(t, w, base, a, b, picks, rounds)
				if !ok {
					return false
				}
				if !slices.Equal(derived, want) {
					t.Logf("%s: DerivedFacts per round %v, %s derived %v", cfg, derived, base, want)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
				t.Error(err)
			}
		})
	}
}

// seedGraph adds edge facts from pairs of a and node facts from b, over
// eight node ids.
func seedGraph(a, b []uint8, add addFunc) {
	for i := 0; i+1 < len(a); i += 2 {
		add("edge", int(a[i]%8), int(a[i+1]%8))
	}
	for _, n := range b {
		add("node", int(n%8))
	}
}

// labelAnswer tags a label request with its node id.
func labelAnswer(r cylog.OpenRequest) map[string]any {
	n, _ := r.KeyValues[0].AsInt()
	return map[string]any{"tag": fmt.Sprintf("t%d", n)}
}

// TestDifferentialProgramMatchesReference covers every literal kind across
// several strata — recursion, negation over a derived relation, a comparison
// and an open relation — with label answers over three rounds.
func TestDifferentialProgramMatchesReference(t *testing.T) {
	runDifferential(t, workload{program: cylog.DifferentialProgram, seed: seedGraph, answer: labelAnswer}, 3, 8)
}

// TestSemiNaiveClosureMatchesReference checks the semi-naive delta variants
// of a recursive rule against naive iteration over random graphs.
func TestSemiNaiveClosureMatchesReference(t *testing.T) {
	runDifferential(t, workload{program: tcProgram, seed: func(a, _ []uint8, add addFunc) {
		seedGraph(a, nil, add)
	}}, 0, 30)
}

// TestIndexedJoinsMatchReference checks planned, index-probing joins —
// reordered closed atoms, probes on bound columns, negation and comparison
// barriers — against source-order full scans.
func TestIndexedJoinsMatchReference(t *testing.T) {
	const src = `
rel edge(a: int, b: int).
rel label(a: int, l: string).
rel reach(a: int, b: int).
rel tagged(a: int, b: int, l: string).
rel far(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
tagged(X, Y, L) :- reach(X, Y), label(Y, L).
far(X, Y) :- reach(X, Y), !edge(X, Y), X != Y.
`
	labels := []string{"red", "green", "blue"}
	runDifferential(t, workload{program: src, seed: func(a, b []uint8, add addFunc) {
		for i := 0; i+1 < len(a); i += 2 {
			add("edge", int(a[i]%16), int(a[i+1]%16))
		}
		for _, n := range b {
			add("label", int(n%16), labels[int(n)%len(labels)])
		}
	}}, 0, 20)
}

// TestIndexedRequestsMatchReference checks the other observable output of a
// planned join — open requests — over random sentence sets and answers.
func TestIndexedRequestsMatchReference(t *testing.T) {
	const src = `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "translate".
rel pending(sid: int).
pending(S) :- sentence(S, _), translated(S, _).
`
	runDifferential(t, workload{
		program: src,
		seed: func(a, _ []uint8, add addFunc) {
			for _, s := range a {
				add("sentence", int(s%32), fmt.Sprintf("s%d", s))
			}
		},
		answer: func(cylog.OpenRequest) map[string]any { return map[string]any{"text": "t"} },
	}, 2, 20)
}

// TestWorkflowRoundsMatchReference replays the sequential-collaboration
// workflow (translate, then check, then final) round by round.
func TestWorkflowRoundsMatchReference(t *testing.T) {
	runDifferential(t, workload{
		program: cylog.SequentialWorkflowProgram,
		seed: func(a, _ []uint8, add addFunc) {
			for _, s := range a {
				add("sentence", int(s%8)+3, fmt.Sprintf("s%d", s%8))
			}
		},
		answer: func(r cylog.OpenRequest) map[string]any {
			sid, _ := r.KeyValues[0].AsInt()
			if r.Relation == "translated" {
				return map[string]any{"text": fmt.Sprintf("T%d", sid)}
			}
			return map[string]any{"ok": sid%2 == 0}
		},
	}, 4, 6)
}

// TestGuardedReachMatchesReference drives the recursive delta behind a
// negation barrier, large enough to engage the hashed delta frontier.
func TestGuardedReachMatchesReference(t *testing.T) {
	for _, cfg := range matrix() {
		if !cfg.incremental {
			continue // one Run; the commit path does not matter
		}
		t.Run(fmt.Sprintf("par%d", cfg.parallelism), func(t *testing.T) {
			e, err := cylog.NewEngine(cylog.MustParse(guardedReachProgram))
			if err != nil {
				t.Fatal(err)
			}
			e.SetParallelism(cfg.parallelism)
			for i := 0; i < 400; i++ {
				base := (i / 8) * 9
				e.AddFact("edge", base+i%8, base+i%8+1)
			}
			e.AddFact("blocked", 4)
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if e.Stats().DeltaHashProbes == 0 {
				t.Error("the guarded delta recorded no frontier probes")
			}
			if err := reference.Check(e, reference.BaseFacts(e)); err != nil {
				t.Error(err)
			}
		})
	}
}
