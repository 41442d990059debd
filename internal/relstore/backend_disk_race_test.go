package relstore

import (
	"sync"
	"testing"
)

// TestDiskBackendWritesSurviveConcurrentEviction races inserts against
// evictions: two relations share a one-byte budget, goroutines loop on
// Maintain and Len (each Len faults a relation in, which rebalances and
// evicts the other), and the test inserts into both relations meanwhile. An
// insert that lands in contents an eviction has just dropped would be
// replaced by the older segment at the next fault-in; every insert must
// survive.
func TestDiskBackendWritesSurviveConcurrentEviction(t *testing.T) {
	b, err := NewDiskBackend(DiskOptions{Dir: t.TempDir(), BudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDatabaseWith(b)
	rels := []*Relation{
		d.MustCreate("left", MustSchema("x:int")),
		d.MustCreate("right", MustSchema("x:int")),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
				}
			}
		}()
	}
	loop(func() {
		if err := b.Maintain(); err != nil {
			t.Error(err)
		}
	})
	for _, r := range rels {
		loop(func() { r.Len() })
	}
	const inserts = 1500
	for i := 0; i < inserts; i++ {
		if _, err := rels[i%2].Insert(NewTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for k, r := range rels {
		if got := r.Len(); got != inserts/2 {
			t.Errorf("%s holds %d tuples, want %d", r.Name(), got, inserts/2)
		}
		for i := k; i < inserts; i += 2 {
			if !contains(r, NewTuple(i)) {
				t.Errorf("%s lost the insert of %d", r.Name(), i)
				break
			}
		}
	}
}
