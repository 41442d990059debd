package cylog

import (
	"strings"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// TestShardedStatsConservation pins the exchange accounting: on a sharded
// full run every derived fact is routed exactly once at its round barrier, so
// ShardLocalTuples + ShardExchanges must equal DerivedFacts — no tuple is
// dropped, double-routed, or routed on the unsharded path. A transitive
// closure over interleaved chains guarantees traffic in both buckets.
func TestShardedStatsConservation(t *testing.T) {
	build := func(shards int) Stats {
		e, err := NewEngine(MustParse(differentialProgram))
		if err != nil {
			t.Fatal(err)
		}
		e.SetShards(shards)
		for i := 0; i < 64; i++ {
			e.AddFact("edge", i%8, (i+3)%8)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	s := build(4)
	if s.DerivedFacts == 0 {
		t.Fatal("workload derived nothing")
	}
	if got := s.ShardLocalTuples + s.ShardExchanges; got != s.DerivedFacts {
		t.Errorf("ShardLocalTuples(%d) + ShardExchanges(%d) = %d, want DerivedFacts %d",
			s.ShardLocalTuples, s.ShardExchanges, got, s.DerivedFacts)
	}
	if s.ShardExchanges == 0 {
		t.Error("4-way sharded closure should exchange frontier tuples across shards")
	}
	if ref := build(1); ref.ShardLocalTuples != 0 || ref.ShardExchanges != 0 {
		t.Errorf("shards=1 must keep shard stats zero, got %+v", ref)
	}
}

// TestPartitionDeltaMultiset pins the frontier exchange's core invariant
// white-box: partitionDelta routes every tuple of every relation to exactly
// the shard ShardOf names, preserves per-relation input order within a shard,
// and the partitions union back to the input multiset.
func TestPartitionDeltaMultiset(t *testing.T) {
	delta := map[string][]relstore.Tuple{
		"edge":  nil,
		"reach": nil,
	}
	for i := 0; i < 40; i++ {
		delta["edge"] = append(delta["edge"], relstore.NewTuple(i, i+1))
		delta["reach"] = append(delta["reach"], relstore.NewTuple(i%7, i))
	}
	// Duplicate a few tuples: multiset preservation, not set.
	delta["edge"] = append(delta["edge"], delta["edge"][:3]...)
	const shards = 4
	parts := partitionDelta(delta, shards)
	if len(parts) != shards {
		t.Fatalf("partitionDelta returned %d parts, want %d", len(parts), shards)
	}
	for rel, ts := range delta {
		var reassembled []relstore.Tuple
		for s, part := range parts {
			for _, tup := range part[rel] {
				if got := relstore.ShardOf(tup, shards); got != s {
					t.Fatalf("%s tuple %v routed to shard %d, ShardOf says %d", rel, tup, s, got)
				}
				reassembled = append(reassembled, tup)
			}
		}
		count := func(ts []relstore.Tuple) map[string]int {
			m := make(map[string]int)
			for _, tup := range ts {
				m[tup.String()]++
			}
			return m
		}
		got, want := count(reassembled), count(ts)
		for k, v := range want {
			if got[k] != v {
				t.Errorf("%s tuple %s: %d copies in, %d out", rel, k, v, got[k])
			}
		}
		if len(got) != len(want) {
			t.Errorf("%s: partition changed the multiset", rel)
		}
	}
}

// TestShardsConfiguration covers the SetShards surface: the getter, the
// n<=0 reset to the environment default, and the CYLOG_SHARDS default wired
// through NewEngine — the knob the CI sharded leg turns.
func TestShardsConfiguration(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Shards(); got != defaultShards() {
		t.Fatalf("fresh engine shards = %d, want default %d", got, defaultShards())
	}
	e.SetShards(4)
	if got := e.Shards(); got != 4 {
		t.Fatalf("Shards() = %d after SetShards(4)", got)
	}
	e.SetShards(0)
	if got := e.Shards(); got != defaultShards() {
		t.Fatalf("SetShards(0) should reset to default, got %d", got)
	}

	t.Setenv("CYLOG_SHARDS", "3")
	e2, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Shards(); got != 3 {
		t.Fatalf("CYLOG_SHARDS=3 engine shards = %d", got)
	}
	t.Setenv("CYLOG_SHARDS", "bogus")
	if got := defaultShards(); got != 1 {
		t.Fatalf("unparseable CYLOG_SHARDS should fall back to 1, got %d", got)
	}
	t.Setenv("CYLOG_SHARDS", "-2")
	if got := defaultShards(); got != 1 {
		t.Fatalf("negative CYLOG_SHARDS should fall back to 1, got %d", got)
	}
}

// TestBookkeeperSingleWriterGuard pins the latent hazard the sharding work
// exposed: stageDelta and admitRequests mutate request bookkeeping with no
// lock of their own, relying on a single evaluation/ingestion goroutine.
// That assumption is now an asserted invariant — a second concurrent claim
// panics instead of silently corrupting request IDs.
func TestBookkeeperSingleWriterGuard(t *testing.T) {
	e, err := NewEngine(MustParse(differentialProgram))
	if err != nil {
		t.Fatal(err)
	}
	release := e.claimBookkeeper()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second claimBookkeeper while claimed should panic")
			}
		}()
		e.claimBookkeeper()
	}()
	release()
	// After release the claim cycle works again.
	e.claimBookkeeper()()
}

// TestShardedRequestIDOrdering is the regression pin for request bookkeeping
// under shards>1: the merge writer admits open requests in shard-then-plan
// order, so the sequence of generated request IDs — which the crowd sees and
// answers by — must be identical to the unsharded engine's, not merely the
// same set.
func TestShardedRequestIDOrdering(t *testing.T) {
	ids := func(shards int) []string {
		e, err := NewEngine(MustParse(incrementalProgram))
		if err != nil {
			t.Fatal(err)
		}
		e.SetShards(shards)
		for n := 0; n < 12; n++ {
			e.AddFact("node", n)
		}
		for n := 0; n < 11; n++ {
			e.AddFact("edge", n, n+1)
		}
		reqs, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(reqs))
		for i, r := range reqs {
			out[i] = r.ID
		}
		return out
	}
	ref := ids(1)
	if len(ref) == 0 {
		t.Fatal("workload generated no requests")
	}
	for _, shards := range []int{2, 4} {
		if got := ids(shards); strings.Join(got, ",") != strings.Join(ref, ",") {
			t.Errorf("shards=%d request IDs = %v, want the unsharded order %v", shards, got, ref)
		}
	}
}
