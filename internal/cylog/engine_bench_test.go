package cylog_test

import (
	"fmt"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// Benchmarks for the evaluation pipeline: planned, index-probing semi-naive
// joins over binding rows, on one worker (SetParallelism(1), so the numbers
// stay comparable across hosts regardless of GOMAXPROCS) and on a 4-worker
// pool (*-par4). BENCH_cylog.json records baseline numbers; EXPERIMENTS.md §1
// keeps the ratios of the ablations these benchmarks used to carry.

const tcProgram = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`

// tcEngine loads `edges` edge facts forming disjoint chains of length 10, so
// the closure stays linear in the input (10k edges -> 55k reach facts) and
// the benchmark measures join work, not result materialisation.
func tcEngine(b *testing.B, edges, workers int) *cylog.Engine {
	b.Helper()
	e, err := cylog.NewEngine(cylog.MustParse(tcProgram))
	if err != nil {
		b.Fatal(err)
	}
	e.SetParallelism(workers)
	const chain = 10
	for i := 0; i < edges; i++ {
		base := (i / chain) * (chain + 1)
		e.AddFact("edge", base+i%chain, base+i%chain+1)
	}
	return e
}

func benchTC(b *testing.B, edges, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := tcEngine(b, edges, workers)
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := len(e.Facts("reach")); got != edges/10*55 {
			b.Fatalf("reach = %d facts, want %d", got, edges/10*55)
		}
		if e.Stats().IndexHits == 0 {
			b.Fatal("indexed run recorded no index hits")
		}
		if workers > 1 && e.Stats().ParallelTasks == 0 {
			b.Fatal("parallel run dispatched no tasks")
		}
		b.StartTimer()
	}
}

func BenchmarkTransitiveClosure(b *testing.B) {
	b.Run("seminaive-indexed-1k", func(b *testing.B) { benchTC(b, 1000, 1) })
	b.Run("seminaive-indexed-10k", func(b *testing.B) { benchTC(b, 10000, 1) })
	b.Run("seminaive-indexed-10k-par4", func(b *testing.B) { benchTC(b, 10000, 4) })
}

// assignProgram is the Crowd4U task-assignment workload: route every task to
// the workers holding its required skill who are not already busy.
const assignProgram = `
rel worker(w: int, skill: string).
rel task(t: int, skill: string).
rel busy(w: int).
rel assignable(w: int, t: int).
assignable(W, T) :- task(T, S), worker(W, S), !busy(W).
`

// assignEngine distributes `facts` total facts as 40% workers, 50% tasks and
// 10% busy markers. The skill vocabulary scales with the input (facts/20) so
// the per-skill fan-out — and with it the output size — stays constant and
// the benchmark measures join work rather than result materialisation.
func assignEngine(b *testing.B, facts, workers int) *cylog.Engine {
	b.Helper()
	e, err := cylog.NewEngine(cylog.MustParse(assignProgram))
	if err != nil {
		b.Fatal(err)
	}
	e.SetParallelism(workers)
	workerFacts := facts * 4 / 10
	tasks := facts * 5 / 10
	busy := facts - workerFacts - tasks
	skills := facts / 20
	for i := 0; i < workerFacts; i++ {
		e.AddFact("worker", i, fmt.Sprintf("skill%d", i%skills))
	}
	for i := 0; i < tasks; i++ {
		e.AddFact("task", i, fmt.Sprintf("skill%d", i%skills))
	}
	for i := 0; i < busy; i++ {
		e.AddFact("busy", i*3)
	}
	return e
}

func benchAssign(b *testing.B, facts, workers int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := assignEngine(b, facts, workers)
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(e.Facts("assignable")) == 0 {
			b.Fatal("no assignments derived")
		}
		b.StartTimer()
	}
}

func BenchmarkTaskAssignment(b *testing.B) {
	b.Run("indexed-1k", func(b *testing.B) { benchAssign(b, 1000, 1) })
	b.Run("indexed-10k", func(b *testing.B) { benchAssign(b, 10000, 1) })
	b.Run("indexed-10k-par4", func(b *testing.B) { benchAssign(b, 10000, 4) })
}

// guardedReachProgram places the recursive atom behind a negation barrier, so
// the planner cannot lead with the delta: every iteration reaches the delta
// frontier with ~|edge| bindings and a bound join column. This is the
// workload the hashed delta frontier exists for — without it each binding
// linearly scans the delta.
const guardedReachProgram = `
rel edge(a: int, b: int).
rel blocked(a: int).
rel reach(a: int, b: int).
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- edge(X, Y), !blocked(Y), reach(Y, Z).
`

func benchGuardedReach(b *testing.B, edges int) {
	b.Helper()
	b.ReportAllocs()
	const chain = 10
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := cylog.NewEngine(cylog.MustParse(guardedReachProgram))
		if err != nil {
			b.Fatal(err)
		}
		e.SetParallelism(1)
		for j := 0; j < edges; j++ {
			base := (j / chain) * (chain + 1)
			e.AddFact("edge", base+j%chain, base+j%chain+1)
		}
		// Block one interior node per 100 chains to keep the negation live
		// without changing the output size materially.
		for j := 0; j < edges/chain; j += 100 {
			e.AddFact("blocked", j*(chain+1)+chain/2)
		}
		b.StartTimer()
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if e.Stats().DeltaHashProbes == 0 {
			b.Fatal("run recorded no delta-frontier probes")
		}
		b.StartTimer()
	}
}

func BenchmarkGuardedReach(b *testing.B) {
	b.Run("delta-hashed-1k", func(b *testing.B) { benchGuardedReach(b, 1000) })
	b.Run("delta-hashed-10k", func(b *testing.B) { benchGuardedReach(b, 10000) })
}

// oracleLoopEngine returns a one-worker engine over the crowdTCProgram
// workload (defined with its loaders in engine_incremental_test.go): a
// 10-chain transitive closure whose chain endpoints each need a human
// approval.
func oracleLoopEngine(b *testing.B, edges int, db *relstore.Database) *cylog.Engine {
	b.Helper()
	e, err := cylog.NewEngineWith(cylog.MustParse(crowdTCProgram), db)
	if err != nil {
		b.Fatal(err)
	}
	e.SetParallelism(1)
	loadCrowdTC(e, edges)
	return e
}

// checkOracleLoop verifies a finished oracle loop: every endpoint approved,
// and every approval retracted its endpoint's rejection.
func checkOracleLoop(b *testing.B, e *cylog.Engine, total cylog.Stats, edges int) {
	b.Helper()
	if got := len(e.Facts("approved")); got != edges/10 {
		b.Fatalf("approved = %d facts, want %d", got, edges/10)
	}
	if got := len(e.Facts("rejected")); got != 0 {
		b.Fatalf("rejected = %d facts, want 0 after retraction", got)
	}
	if total.RetractedTuples != edges/10 {
		b.Fatalf("RetractedTuples = %d, want %d", total.RetractedTuples, edges/10)
	}
}

// benchOracleLoop measures the round-based crowd loop: `wave` approvals per
// round, each round ingested as a batch through RunIncremental, which seeds
// the round's deltas from the answers and counts the derivations of the
// negated rejected stratum they block, retracting the approved endpoints'
// rejections.
func benchOracleLoop(b *testing.B, edges, wave int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := oracleLoopEngine(b, edges, relstore.NewDatabase())
		b.StartTimer()
		total, err := e.RunToFixpointWithOracle(waveOracle(wave), 1000)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		checkOracleLoop(b, e, total, edges)
		if total.SeededDeltas != edges/10 {
			b.Fatalf("SeededDeltas = %d, want %d", total.SeededDeltas, edges/10)
		}
		b.StartTimer()
	}
}

// BenchmarkOracleLoop is the batched-answering benchmark: 1k- and 10k-scale
// crowd rounds (100 and 1000 endpoints, approved 10 and 100 per round).
// BENCH_cylog.json records the baselines.
func BenchmarkOracleLoop(b *testing.B) {
	b.Run("incremental-1k", func(b *testing.B) { benchOracleLoop(b, 1000, 10) })
	b.Run("incremental-10k", func(b *testing.B) { benchOracleLoop(b, 10000, 100) })
}

// benchOracleLoopDisk is the oracle loop on a storage backend: the engine's
// database is opened through the relstore Backend seam. The "memory" variant
// is the seam-overhead reference (it must track the OracleLoop numbers — the
// hot join path never crosses the interface). The "disk" variant opens a
// budget small enough that the base relations are evicted cold before the
// loop starts and a Maintain pass runs after the loop, so the measurement
// includes segment writes, fault-ins and residency rebalancing — the cost of
// running the crowd loop on state larger than memory.
func benchOracleLoopDisk(b *testing.B, edges, wave int, backend string) {
	b.Helper()
	b.ReportAllocs()
	dir := b.TempDir()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var db relstore.Backend = relstore.NewMemoryBackend()
		if backend == "disk" {
			disk, err := relstore.NewDiskBackend(relstore.DiskOptions{Dir: dir, BudgetBytes: 4 << 10})
			if err != nil {
				b.Fatal(err)
			}
			db = disk
		}
		e := oracleLoopEngine(b, edges, relstore.NewDatabaseWith(db))
		maintain := func() {
			if err := e.Database().Backend().Maintain(); err != nil {
				b.Fatal(err)
			}
		}
		maintain() // page the cold base relations out before the loop starts
		b.StartTimer()
		total, err := e.RunToFixpointWithOracle(waveOracle(wave), 1000)
		if err != nil {
			b.Fatal(err)
		}
		maintain()
		b.StopTimer()
		checkOracleLoop(b, e, total, edges)
		s := e.Database().Backend().Stats()
		if backend == "disk" {
			if s.Evictions == 0 || s.Faults == 0 {
				b.Fatalf("disk loop paged nothing: %+v", s)
			}
			if s.ResidentBytes > s.BudgetBytes {
				b.Fatalf("resident %d bytes exceeds budget %d after Maintain", s.ResidentBytes, s.BudgetBytes)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkOracleLoopDiskBackend prices the storage seam on the crowd loop:
// backend-memory is the interface-overhead reference (gated tight — the seam
// must be free on the hot path), backend-disk is the paging cost under a
// 4 KiB budget with cold-start eviction. BENCH_cylog.json records the
// baselines.
func BenchmarkOracleLoopDiskBackend(b *testing.B) {
	b.Run("backend-memory-1k", func(b *testing.B) { benchOracleLoopDisk(b, 1000, 10, "memory") })
	b.Run("backend-disk-1k", func(b *testing.B) { benchOracleLoopDisk(b, 1000, 10, "disk") })
	b.Run("backend-disk-10k", func(b *testing.B) { benchOracleLoopDisk(b, 10000, 100, "disk") })
}
