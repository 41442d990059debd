package cylog

import (
	"fmt"
	"slices"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// checkChunks asserts that tasks are the work units of one rule variant
// restricted on atom: every task evaluates r, restricts the same atom, and the
// tasks' tuples concatenate back to want in order, so each tuple is evaluated
// in exactly one task. When the variant was split, every chunk carries at
// least minSplitTuples tuples.
func checkChunks(t *testing.T, tasks []evalTask, r *Rule, atom int, want []relstore.Tuple) {
	t.Helper()
	var got []relstore.Tuple
	for i, task := range tasks {
		if task.rule != r {
			t.Fatalf("task %d evaluates rule %s, want %s", i, task.rule, r)
		}
		if task.v.deltaAtom != atom {
			t.Fatalf("task %d restricts body atom %d, want %d", i, task.v.deltaAtom, atom)
		}
		if len(tasks) > 1 && len(task.v.deltaTuples) < minSplitTuples {
			t.Errorf("chunk %d holds %d tuples, below minSplitTuples (%d)", i, len(task.v.deltaTuples), minSplitTuples)
		}
		got = append(got, task.v.deltaTuples...)
	}
	if len(got) != len(want) {
		t.Fatalf("chunks hold %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("chunked tuple %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSplitVariantChunks pins how a delta variant becomes work units. At one
// worker, or with fewer than 2*minSplitTuples delta tuples, the variant stays
// whole: one task holding the caller's slice, not a copy. Above that it is cut
// into min(workers, tuples/minSplitTuples) chunks that restrict the same atom
// and concatenate back to the delta in order. Splitting a delta variant
// consults no plan, so it leaves the Stats untouched.
func TestSplitVariantChunks(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	// reach(X, Z) :- reach(X, Y), edge(Y, Z), restricted on its reach atom.
	r := e.analysis.Program.Rules[1]
	cases := []struct {
		workers, tuples, chunks int
	}{
		{1, 1, 1},
		{1, 5120, 1},
		{2, 2*minSplitTuples - 1, 1},
		{2, 2 * minSplitTuples, 2},
		{2, 5120, 2},
		{4, 2 * minSplitTuples, 2},
		{4, 3*minSplitTuples - 1, 2},
		{4, 3 * minSplitTuples, 3},
		{4, 4 * minSplitTuples, 4},
		{4, 5120, 4},
		{8, 2*minSplitTuples - 1, 1},
		{8, 8*minSplitTuples - 1, 7},
		{8, 8 * minSplitTuples, 8},
		{8, 5120, 8},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("workers=%d/tuples=%d", tc.workers, tc.tuples), func(t *testing.T) {
			delta := make([]relstore.Tuple, tc.tuples)
			for i := range delta {
				delta[i] = relstore.NewTuple(i, i+1)
			}
			var stats Stats
			tasks := e.splitVariant(nil, r, ruleVariant{deltaAtom: 0, deltaTuples: delta}, tc.workers, &stats)
			if len(tasks) != tc.chunks {
				t.Fatalf("%d tasks, want %d", len(tasks), tc.chunks)
			}
			checkChunks(t, tasks, r, 0, delta)
			if tc.chunks == 1 && &tasks[0].v.deltaTuples[0] != &delta[0] {
				t.Error("a whole variant should keep the delta slice, not copy it")
			}
			if stats != (Stats{}) {
				t.Errorf("splitting a delta variant touched the stats: %+v", stats)
			}
		})
	}
}

// splitProgram gives splittableFullScan one rule per outcome: a closed
// unbound scan (hop), a scan probed on a constant (tail), a body led by an
// open atom (tagged) and a scan of an empty relation (seen).
const splitProgram = `
rel edge(a: int, b: int).
rel hop(a: int, b: int).
rel tail(b: int).
rel item(n: int).
rel seen(n: int).
open rel label(n: int, tag: string) key(n) asks "Label this item".
rel tagged(n: int, tag: string).

hop(X, Y) :- edge(X, Y).
tail(B) :- edge(1, B).
tagged(N, T) :- label(N, T), item(N).
seen(N) :- item(N).
`

// splitEngine builds an engine over splitProgram with n edge facts and no
// items.
func splitEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(splitProgram))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.AddFact("edge", i%7, i); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSplittableFullScan pins which full passes can be split: only a body
// whose planned first step is a closed positive atom scanned with no bound
// column. A constant-probed first atom keeps its index lookup and a leading
// open atom keeps its request check, so both report -1. The scan returns the
// relation's tuples in its sorted order, empty for an empty relation.
func TestSplittableFullScan(t *testing.T) {
	e := splitEngine(t, 600)
	cases := []struct {
		name     string
		rule     int
		wantAtom int
		wantRel  string
	}{
		{name: "closed scan", rule: 0, wantAtom: 0, wantRel: "edge"},
		{name: "constant probe", rule: 1, wantAtom: -1},
		{name: "leading open atom", rule: 2, wantAtom: -1},
		{name: "empty relation", rule: 3, wantAtom: 0, wantRel: "item"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stats Stats
			atom, tuples := e.splittableFullScan(e.analysis.Program.Rules[tc.rule], &stats)
			if atom != tc.wantAtom {
				t.Fatalf("split atom = %d, want %d", atom, tc.wantAtom)
			}
			var want []relstore.Tuple
			if tc.wantRel != "" {
				want = e.db.Relation(tc.wantRel).All()
			}
			if !slices.EqualFunc(tuples, want, relstore.Tuple.Equal) {
				t.Errorf("split tuples = %d, want the %d tuples of %q", len(tuples), len(want), tc.wantRel)
			}
		})
	}
}

// TestSplitVariantFullPass covers the full-pass side of splitVariant: at one
// worker the unrestricted variant stays whole without a plan lookup or a copy
// of the relation; on a pool a large scan is chunked on the planned first atom
// exactly like a delta variant.
func TestSplitVariantFullPass(t *testing.T) {
	e := splitEngine(t, 600)
	r := e.analysis.Program.Rules[0] // hop(X, Y) :- edge(X, Y).
	edges := e.db.Relation("edge").All()
	for _, tc := range []struct{ workers, chunks int }{{1, 1}, {2, 2}, {4, 4}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			var stats Stats
			tasks := e.splitVariant(nil, r, ruleVariant{deltaAtom: -1}, tc.workers, &stats)
			if len(tasks) != tc.chunks {
				t.Fatalf("%d tasks, want %d", len(tasks), tc.chunks)
			}
			if tc.workers == 1 {
				if v := tasks[0].v; v.deltaAtom != -1 || v.deltaTuples != nil {
					t.Errorf("one-worker full pass became %+v, want the unrestricted variant", v)
				}
				if stats != (Stats{}) {
					t.Errorf("one-worker full pass looked up a plan: %+v", stats)
				}
				return
			}
			checkChunks(t, tasks, r, 0, edges)
		})
	}
}

// TestEvaluateTasksKeepsTaskOrder pins the pool's output contract, which the
// merge step's determinism rests on: outputs[i] is task i's result for every
// worker count, however the pool schedules the tasks.
func TestEvaluateTasksKeepsTaskOrder(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	r := e.analysis.Program.Rules[0] // reach(X, Y) :- edge(X, Y).
	var tasks []evalTask
	for c := 0; c < 16; c++ {
		chunk := make([]relstore.Tuple, 0, 20)
		for i := 0; i < 20; i++ {
			chunk = append(chunk, relstore.NewTuple(c, 100*c+i))
		}
		tasks = append(tasks, evalTask{rule: r, v: ruleVariant{deltaAtom: 0, deltaTuples: chunk}})
	}
	key := func(ts []relstore.Tuple) []string {
		out := make([]string, len(ts))
		for i, tup := range ts {
			out[i] = tup.String()
		}
		slices.Sort(out)
		return out
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			outputs := e.evaluateTasks(tasks, workers)
			if len(outputs) != len(tasks) {
				t.Fatalf("%d outputs for %d tasks", len(outputs), len(tasks))
			}
			for i, out := range outputs {
				if out.err != nil {
					t.Fatalf("task %d: %v", i, out.err)
				}
				if got, want := key(out.tuples), key(tasks[i].v.deltaTuples); !slices.Equal(got, want) {
					t.Fatalf("output %d = %v, want task %d's tuples %v", i, got, i, want)
				}
			}
		})
	}
}
