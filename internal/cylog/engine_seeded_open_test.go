package cylog_test

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
)

// seededOpenProgram gathers the rule shapes a seeded open delta variant can
// meet that the crowd programs of the benchmarks do not:
//
//   - chain: an open atom after the seeded one whose key only the seeded
//     atom binds — answering o1(X, Y) must ask o2 about Y in the same round;
//   - chk: two open atoms with the delta on the second (the translate
//     program's needCheck shape), fed by need's requests for t;
//   - guarded: a negation before the open atom, which pins the delta atom
//     behind it;
//   - every rule leads with the EDB relation a, so an AddFact in the same
//     round as an answer seeds a prefix delta next to the open one.
const seededOpenProgram = `
rel a(x: int).
rel b(x: int).
open rel o1(x: int, y: int) key(x) asks "first".
open rel o2(y: int, z: int) key(y) asks "second".
open rel t(s: int, text: string) key(s) asks "translate".
open rel c(s: int, ok: bool) key(s) asks "check".
rel chain(x: int, z: int).
rel need(s: int).
rel chk(s: int, text: string).
rel guarded(x: int, y: int).

chain(X, Z) :- a(X), o1(X, Y), o2(Y, Z).
need(S) :- a(S), t(S, _).
chk(S, T) :- t(S, T), c(S, _).
guarded(X, Y) :- a(X), !b(X), o1(X, Y).
`

// seededOpenAnswer derives a request's open-column values from its key, so
// every configuration answers identically.
func seededOpenAnswer(r cylog.OpenRequest) map[string]any {
	k, _ := r.KeyValues[0].AsInt()
	switch r.Relation {
	case "o1":
		return map[string]any{"y": int(k % 3)}
	case "o2":
		return map[string]any{"z": int(k * 10)}
	case "t":
		return map[string]any{"text": fmt.Sprintf("t%d", k)}
	default: // c
		return map[string]any{"ok": k%2 == 0}
	}
}

// TestSeededOpenDeltaDifferential checks the delta-led open atom plans and
// the request checks they skip against the reference. Each round answers a
// picks-driven subset of the pending requests and, in the same round,
// AddFacts a new a (and, every other round, a b that retracts a guarded
// fact); every round's facts and pending request ids must equal the
// reference's on every configuration of the matrix.
func TestSeededOpenDeltaDifferential(t *testing.T) {
	runDifferential(t, seededOpenWorkload, 4, 8)
}

var seededOpenWorkload = workload{
	program: seededOpenProgram,
	seed: func(a, _ []uint8, add addFunc) {
		add("a", 1)
		for _, n := range a {
			add("a", int(n%16))
		}
	},
	answer: seededOpenAnswer,
	between: func(round int, a []uint8, add addFunc) {
		add("a", 16+round)
		if round%2 == 0 && len(a) > 0 {
			add("b", int(a[0]%16))
		}
	},
}

// labelingProgram and translateProgram are the served crowd programs:
// crowdserve's demo labeling project, and the paper's translate → check →
// final collaboration.
const (
	labelingProgram = `
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "Is this item acceptable?".
rel labeled(id: int).
rel flagged(id: int).

labeled(I) :- item(I), label(I, true).
flagged(I) :- item(I), !labeled(I).
`
	translateProgram = `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "Translate this subtitle line" scheme "sequential".
open rel checked(sid: int, ok: bool) key(sid) asks "Is this translation faithful and fluent?".
rel needTranslation(sid: int).
rel needCheck(sid: int, text: string).
rel final(sid: int, text: string).

needTranslation(S) :- sentence(S, _), translated(S, _).
needCheck(S, T) :- translated(S, T), checked(S, _).
final(S, T) :- translated(S, T), checked(S, true).
`
)

// seededProgramEngine returns an engine over program with n seed facts
// (item(i), or sentence(i, "s<i>")) brought to its first fixpoint, which
// leaves one pending request per seed.
func seededProgramEngine(tb testing.TB, program string, n int) *cylog.Engine {
	tb.Helper()
	e, err := cylog.NewEngine(cylog.MustParse(program))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if program == labelingProgram {
			err = e.AddFact("item", i)
		} else {
			err = e.AddFact("sentence", i, fmt.Sprintf("s%d", i))
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	reqs, err := e.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if len(reqs) != n {
		tb.Fatalf("first fixpoint left %d pending requests, want %d", len(reqs), n)
	}
	return e
}

// answerOne commits a one-answer round and returns its Stats.
func answerOne(tb testing.TB, e *cylog.Engine, id string, vals map[string]any) cylog.Stats {
	tb.Helper()
	batch := e.NewAnswerBatch()
	if err := batch.Answer(id, vals); err != nil {
		tb.Fatal(err)
	}
	if _, err := e.RunIncremental(batch); err != nil {
		tb.Fatal(err)
	}
	return e.Stats()
}

// TestOneAnswerRequestChecksIndependentOfPending pins the cost model of a
// one-answer round: the bindings that reach an open atom's request check
// (Stats.RequestChecks) depend on the answer, not on how many requests are
// pending. Before seeded open deltas led their rules, every such round
// re-checked the request of every pending item or sentence.
func TestOneAnswerRequestChecksIndependentOfPending(t *testing.T) {
	rounds := func(program string, n int) []int {
		e := seededProgramEngine(t, program, n)
		if program == labelingProgram {
			return []int{
				answerOne(t, e, "label|1", map[string]any{"ok": true}).RequestChecks,
				answerOne(t, e, "label|2", map[string]any{"ok": false}).RequestChecks,
			}
		}
		return []int{
			answerOne(t, e, "translated|1", map[string]any{"text": "t1"}).RequestChecks,
			answerOne(t, e, "checked|1", map[string]any{"ok": true}).RequestChecks,
		}
	}
	for _, program := range []string{labelingProgram, translateProgram} {
		small, large := rounds(program, 1000), rounds(program, 4000)
		if fmt.Sprint(small) != fmt.Sprint(large) {
			t.Errorf("RequestChecks per one-answer round: %v at 1k pending, %v at 4k", small, large)
		}
		for _, n := range small {
			if n > 4 {
				t.Errorf("one-answer round made %d request checks, want a handful: %v", n, small)
			}
		}
	}
}

// BenchmarkSeededAnswerRound prices one answer's RunIncremental — the
// engine's share of answer→fixpoint latency — with 1k and 10k pending
// requests, on the two served programs:
//   - label: each op commits a one-answer round whose label is true, so
//     every round also retracts the item from the negated flagged stratum,
//     as in crowdserve's labeling project;
//   - translate: each op commits one translated answer, which closes its
//     request and opens the sentence's checked request, so the pending count
//     stays flat.
//
// Both close a request and publish the pending view. A warm-up round before
// timing builds the indexes and plans the steady-state rounds reuse. The
// engine is rebuilt (untimed) every roundsPerEngine rounds, so every op sees
// about the same number of pending requests. The engine runs on one worker,
// except in the -par2 entries, which pin the two workers crowdserve runs
// with on a 2-vCPU host (GOMAXPROCS), so that they mean the same on every
// host.
func BenchmarkSeededAnswerRound(b *testing.B) {
	const roundsPerEngine = 32
	for _, c := range []struct {
		name, program, prefix string
		vals                  func(k int) map[string]any
		workers               int
	}{
		{"label", labelingProgram, "label", func(int) map[string]any { return map[string]any{"ok": true} }, 1},
		{"translate", translateProgram, "translated", func(k int) map[string]any { return map[string]any{"text": fmt.Sprintf("t%d", k)} }, 1},
		{"translate", translateProgram, "translated", func(k int) map[string]any { return map[string]any{"text": fmt.Sprintf("t%d", k)} }, 2},
	} {
		suffix := ""
		if c.workers > 1 {
			suffix = fmt.Sprintf("-par%d", c.workers)
		}
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s-%dk%s", c.name, n/1000, suffix), func(b *testing.B) {
				b.ReportAllocs()
				var e *cylog.Engine
				next := roundsPerEngine
				for i := 0; i < b.N; i++ {
					if next >= roundsPerEngine {
						b.StopTimer()
						e = seededProgramEngine(b, c.program, n)
						e.SetParallelism(c.workers)
						answerOne(b, e, c.prefix+"|1", c.vals(1))
						next = 1
						// Collect the set-up's garbage now, so no collection
						// it owes lands inside a timed round.
						runtime.GC()
						b.StartTimer()
					}
					next++
					answerOne(b, e, fmt.Sprintf("%s|%d", c.prefix, next), c.vals(next))
				}
			})
		}
	}
}
