package relstore

import (
	"fmt"
	"runtime"
	"testing"
)

// benchRelation builds a relation of n rows over 100 distinct (a) values and
// 1000 distinct (a, b) combinations.
func benchRelation(n int) *Relation {
	r := NewRelation("bench", MustSchema("a:int", "b:int", "payload:string"))
	for i := 0; i < n; i++ {
		r.MustInsert(i%100, i%1000/100, fmt.Sprintf("row%d", i))
	}
	return r
}

// probesPerOp is the fixed batch of probes one benchmark op issues, so that a
// -benchtime=1x smoke times enough work to be stable.
const probesPerOp = 1000

// benchProbes runs probe over a relation of n rows, indexed on positions or
// not, as "scan-<n>" and "indexed-<n>" sub-benchmarks.
func benchProbes(b *testing.B, n int, positions []int, probe func(b *testing.B, r *Relation, p int)) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "indexed"
		}
		b.Run(fmt.Sprintf("%s-%d", name, n), func(b *testing.B) {
			r := benchRelation(n)
			if indexed {
				if err := r.EnsureIndexAt(positions); err != nil {
					b.Fatal(err)
				}
			}
			batch := func() {
				for p := 0; p < probesPerOp; p++ {
					probe(b, r, p)
				}
			}
			// One untimed batch warms the caches, and the set-up's garbage is
			// collected, so a 1x run times a steady-state batch.
			batch()
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch()
			}
		})
	}
}

// BenchmarkScanEqAt measures the probe the CyLog join loop issues once per
// binding: every probe binds both columns of the (a, b) index and visits
// the n/1000 tuples that match.
func BenchmarkScanEqAt(b *testing.B) {
	const n = 10000
	positions := []int{0, 1}
	vals := make([]Value, 2)
	benchProbes(b, n, positions, func(b *testing.B, r *Relation, p int) {
		vals[0], vals[1] = Int(int64(p%100)), Int(int64(p%10))
		matches := 0
		if _, err := r.ScanEqAt(positions, vals, func(Tuple) bool { matches++; return true }); err != nil {
			b.Fatal(err)
		}
		if matches != n/1000 {
			b.Fatalf("ScanEqAt matched %d rows, want %d", matches, n/1000)
		}
	})
}

// BenchmarkContainsAt measures the existence probe the engine uses to check
// whether an open relation already holds a fact for a request key: half of
// the probes hit one of the 100 (a) values, half miss, which a scan answers
// only after visiting every tuple.
func BenchmarkContainsAt(b *testing.B) {
	const n = 10000
	positions := []int{0}
	vals := make([]Value, 1)
	benchProbes(b, n, positions, func(b *testing.B, r *Relation, p int) {
		vals[0] = Int(int64(p % 200))
		found, err := r.ContainsAt(positions, vals)
		if err != nil {
			b.Fatal(err)
		}
		if found != (p%200 < 100) {
			b.Fatalf("ContainsAt(a=%d) = %v", p%200, found)
		}
	})
}
