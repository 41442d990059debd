package wal

import (
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
)

// BenchmarkOracleLoopDurable measures what durability costs on the crowd
// loop: the same 10k-scale transitive-closure workload as the cylog package's
// BenchmarkOracleLoop/incremental-10k (1000 endpoints approved 100 per
// round), but with every round's answer batch journaled and appended to a
// write-ahead log before the next round starts — the platform's commit path.
// fsync=off is the pure serialization + page-cache-write overhead (the
// acceptance ceiling: ≤15% over the non-durable loop); fsync=interval adds
// the flush cadence a real deployment would run.

const crowdTCProgram = `
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel endpoint(n: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve this endpoint".
rel approved(n: int).
rel rejected(n: int).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
endpoint(N) :- reach(_, N), !edge(N, _).
approved(N) :- endpoint(N), approve(N, true).
rejected(N) :- endpoint(N), !approved(N).
`

func loadCrowdTC(b *testing.B, e *cylog.Engine, edges int) {
	b.Helper()
	const chain = 10
	for i := 0; i < edges; i++ {
		base := (i / chain) * (chain + 1)
		if err := e.AddFact("edge", base+i%chain, base+i%chain+1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOracleLoopDurable drives the round-based crowd loop by hand — run,
// answer a wave of requests into a batch, commit through RunIncremental,
// append the drained journal to the WAL — mirroring the cylog benchmark's
// engine configuration (one worker) so the delta against its
// incremental-10k baseline isolates WAL cost.
func benchOracleLoopDurable(b *testing.B, edges, wave int, policy SyncPolicy) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := cylog.NewEngine(cylog.MustParse(crowdTCProgram))
		if err != nil {
			b.Fatal(err)
		}
		e.SetParallelism(1)
		l, err := Open(b.TempDir(), Options{Policy: policy})
		if err != nil {
			b.Fatal(err)
		}
		e.SetJournaling(true)
		loadCrowdTC(b, e, edges)
		b.StartTimer()

		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		reqs := e.PendingView().Page(0, wave)
		if _, err := l.Append(drain(e)); err != nil {
			b.Fatal(err)
		}
		for round := 0; len(reqs) > 0 && round < 1000; round++ {
			batch := e.NewAnswerBatch()
			for j, r := range reqs {
				if j >= wave {
					break
				}
				if err := batch.Answer(r.ID, map[string]any{"ok": true}); err != nil {
					b.Fatal(err)
				}
			}
			if batch.Len() == 0 {
				break
			}
			view, err := e.RunIncremental(batch)
			if err != nil {
				b.Fatal(err)
			}
			reqs = view.Page(0, wave)
			if _, err := l.Append(drain(e)); err != nil {
				b.Fatal(err)
			}
		}

		b.StopTimer()
		if got := len(e.Facts("approved")); got != edges/10 {
			b.Fatalf("approved = %d facts, want %d", got, edges/10)
		}
		st := l.Stats()
		if st.AppendedOps != edges+edges/10 {
			b.Fatalf("journaled %d ops, want %d edges + %d answers", st.AppendedOps, edges, edges/10)
		}
		if policy == SyncOff && st.Syncs != 0 {
			b.Fatalf("fsync=off issued %d syncs", st.Syncs)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkOracleLoopDurable(b *testing.B) {
	b.Run("fsync-off-10k", func(b *testing.B) { benchOracleLoopDurable(b, 10000, 100, SyncOff) })
	b.Run("fsync-interval-10k", func(b *testing.B) { benchOracleLoopDurable(b, 10000, 100, SyncInterval) })
}
