package cylog

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// pendingViewProgram opens an approve request per item and a review request
// per item not yet approved, so an approval closes one request and withdraws
// another through retraction of the negated stratum.
const pendingViewProgram = `
rel item(n: int).
open rel approve(n: int, ok: bool) key(n) asks "Approve this item".
rel approved(n: int).
rel rejected(n: int).
open rel review(n: int, note: string) key(n) asks "Review this rejection".
rel reviewed(n: int).

approved(N) :- item(N), approve(N, true).
rejected(N) :- item(N), !approved(N).
reviewed(N) :- rejected(N), review(N, _).
`

// pendingMapSorted is the ground truth the published view must equal: the
// pending map, read under the engine lock and sorted by ID.
func pendingMapSorted(e *Engine) []OpenRequest {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]OpenRequest, 0, len(e.pending))
	for _, r := range e.pending {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func requireViewIsPendingSet(t *testing.T, e *Engine, step string) {
	t.Helper()
	got, want := e.PendingRequests(), pendingMapSorted(e)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PendingRequests = %v, want the sorted pending map %v", step, requestIDList(got), requestIDList(want))
	}
	if err := checkPendingView(e.PendingView()); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// checkPendingView checks a snapshot's layout and its reads against its
// flattened requests:
//   - every chunk is non-empty and strictly ID-sorted, and the chunks are in
//     ID order;
//   - every chunk holds between pendingChunk/2 and 2*pendingChunk requests,
//     unless the whole view is smaller than pendingChunk/2 and is one chunk;
//   - the prefix offsets count the chunks' requests;
//   - Page(offset, limit) is the same window of All() at every offset, with
//     limits up to pendingChunk+3 that cross chunk boundaries, and is empty
//     at and past the end.
func checkPendingView(v *PendingView) error {
	all := v.All()
	var ids []string
	for i, c := range v.chunks {
		if v.starts[i] != len(ids) {
			return fmt.Errorf("chunk %d starts at %d, want %d", i, v.starts[i], len(ids))
		}
		if len(c) == 0 {
			return fmt.Errorf("chunk %d of %d is empty", i, len(v.chunks))
		}
		if n := v.Len(); (n >= pendingChunk/2 || len(v.chunks) > 1) && (len(c) < pendingChunk/2 || len(c) > 2*pendingChunk) {
			return fmt.Errorf("chunk %d of %d holds %d requests, outside [%d, %d] (view of %d)", i, len(v.chunks), len(c), pendingChunk/2, 2*pendingChunk, n)
		}
		for _, r := range c {
			if len(ids) > 0 && ids[len(ids)-1] >= r.ID {
				return fmt.Errorf("view not strictly sorted at %d: %s, %s", len(ids), ids[len(ids)-1], r.ID)
			}
			ids = append(ids, r.ID)
		}
	}
	if v.Len() != len(ids) || len(all) != len(ids) {
		return fmt.Errorf("Len = %d and All holds %d, but the chunks hold %d", v.Len(), len(all), len(ids))
	}
	for i := range all {
		if all[i].ID != ids[i] {
			return fmt.Errorf("All()[%d] = %s, the chunks hold %s", i, all[i].ID, ids[i])
		}
	}
	n := len(all)
	for offset := 0; offset <= n+2; offset++ {
		if err := checkPage(v, all, offset, 1+offset%(pendingChunk+3)); err != nil {
			return err
		}
	}
	for _, limit := range []int{0, 2*pendingChunk + 1, n, n + 10} {
		if err := checkPage(v, all, 0, limit); err != nil {
			return err
		}
	}
	if got, want := v.Page(-1, 3), v.Page(0, 3); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("Page(-1, 3) = %v, want Page(0, 3) = %v", pointerIDList(got), pointerIDList(want))
	}
	return nil
}

// checkPage compares one page of v with the same window of all.
func checkPage(v *PendingView, all []OpenRequest, offset, limit int) error {
	page := v.Page(offset, limit)
	want := all[min(offset, len(all)):min(offset+limit, len(all))]
	if len(page) != len(want) {
		return fmt.Errorf("Page(%d, %d) holds %d requests, want %d", offset, limit, len(page), len(want))
	}
	for i := range page {
		if page[i].ID != want[i].ID {
			return fmt.Errorf("Page(%d, %d)[%d] = %s, want %s", offset, limit, i, page[i].ID, want[i].ID)
		}
	}
	return nil
}

func requestIDList(rs []OpenRequest) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func pointerIDList(rs []*OpenRequest) []string {
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

// checkSharing checks what a publication shares with the snapshot before
// it, given the ids it changed:
//   - every request whose id did not change is the same pointer in both;
//   - every chunk of before that no changed id falls in, and that is not
//     next to one that some id falls in (whose fresh run may join it), is
//     shared whole: the same backing array and length.
func checkSharing(before, after *PendingView, changed map[string]bool) error {
	old := make(map[string]*OpenRequest, before.Len())
	for _, c := range before.chunks {
		for _, r := range c {
			old[r.ID] = r
		}
	}
	shared := make(map[**OpenRequest]int, len(after.chunks)) // backing array → length
	for _, c := range after.chunks {
		shared[&c[0]] = len(c)
		for _, r := range c {
			if p, ok := old[r.ID]; ok && !changed[r.ID] && p != r {
				return fmt.Errorf("unchanged request %s was copied", r.ID)
			}
		}
	}
	touched := make([]bool, len(before.chunks)+2) // touched[i+1]: chunk i
	for id := range changed {
		i := sort.Search(len(before.chunks), func(i int) bool { return before.chunks[i][0].ID > id })
		touched[max(i, 1)] = true
	}
	for i, c := range before.chunks {
		if touched[i] || touched[i+1] || touched[i+2] {
			continue
		}
		if n, ok := shared[&c[0]]; !ok || n != len(c) {
			return fmt.Errorf("chunk %d of %d, untouched, was copied", i, len(before.chunks))
		}
	}
	return nil
}

// TestPendingRequestsDoesNotWaitForCommit holds the engine lock, standing in
// for a commit in flight, and requires PendingRequests to return the last
// published set anyway: a feed read linearizes before the commit instead of
// queueing behind it.
func TestPendingRequestsDoesNotWaitForCommit(t *testing.T) {
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 4; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	want, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	e.mu.Lock()
	got := make(chan []OpenRequest, 1)
	go func() { got <- e.PendingRequests() }()
	select {
	case reqs := <-got:
		e.mu.Unlock()
		if !reflect.DeepEqual(reqs, want) {
			t.Fatalf("PendingRequests under a held lock = %v, want %v", requestIDList(reqs), requestIDList(want))
		}
	case <-time.After(100 * time.Millisecond):
		e.mu.Unlock()
		t.Fatal("PendingRequests waited for the engine lock")
	}
}

// TestPendingViewFollowsEveryMutator changes the pending set through each
// operation that can — with no run after the ones that do not run — and
// requires the published view to equal the sorted pending map after each. It
// runs with 8 items and with 600, whose 1,200 requests span many chunks.
func TestPendingViewFollowsEveryMutator(t *testing.T) {
	for _, items := range []int{8, 600} {
		t.Run(fmt.Sprintf("items-%d", items), func(t *testing.T) { testPendingViewMutators(t, items) })
	}
}

func testPendingViewMutators(t *testing.T, items int) {
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.PendingRequests(); got == nil || len(got) != 0 {
		t.Fatalf("fresh engine: PendingRequests = %v, want empty", got)
	}
	for n := 1; n <= items; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	reqs, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "Run")
	if len(reqs) != 2*items || &reqs[0] != &e.PendingRequests()[0] {
		t.Fatalf("Run returned %d requests, want the published view of %d", len(reqs), 2*items)
	}

	// Approving item 1 closes approve|1 and withdraws review|1.
	if err := commitAnswer(e, "approve|1", map[string]any{"ok": true}); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "RunIncremental(answer)")
	if err := e.AnswerFact("approve", 2, false); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "AnswerFact")
	if _, err := e.ReplayOps([]FactOp{{Kind: OpAnswer, RequestID: "approve|3", Relation: "approve", Tuple: relstore.NewTuple(3, false)}}); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "ReplayOps")
	if got := e.PendingView().Len(); got != 2*items-4 {
		t.Fatalf("after a committed approval and two answers without a run: %d requests, want %d", got, 2*items-4)
	}

	// The run derives the two uncommitted rejections, then a batch rejects
	// 4 and 5, approves 6 and reviews 2.
	if _, err := e.RunIncremental(nil); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "RunIncremental(nil)")
	b := e.NewAnswerBatch()
	for _, a := range []struct {
		id string
		ok bool
	}{{"approve|4", false}, {"approve|5", false}, {"approve|6", true}} {
		if err := b.Answer(a.id, map[string]any{"ok": a.ok}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AnswerFact("review", 2, "fine"); err != nil {
		t.Fatal(err)
	}
	view, err := e.RunIncremental(b)
	if err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "RunIncremental(batch)")
	if view != e.PendingView() {
		t.Fatalf("RunIncremental returned %v, want the published view %v", requestIDList(view.All()), requestIDList(e.PendingRequests()))
	}

	// New items after a completed fixpoint make the full run retract first:
	// every request is dropped and the live ones are re-admitted. Approving
	// item 7 first, through AnswerFact, which inserts without a run, leaves
	// review|7 among the dropped requests that are not.
	if err := e.AnswerFact("approve", 7, true); err != nil {
		t.Fatal(err)
	}
	for n := items + 1; n <= items+2; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	requireViewIsPendingSet(t, e, "Run after AddFact")
	want := []string{"review|3", "review|4", "review|5"}
	for n := 8; n <= items+2; n++ {
		want = append(want, fmt.Sprintf("approve|%d", n), fmt.Sprintf("review|%d", n))
	}
	sort.Strings(want)
	if got := requestIDList(e.PendingRequests()); !reflect.DeepEqual(got, want) {
		t.Fatalf("final pending = %v, want %v", got, want)
	}
}

// TestPendingViewConcurrentReaders reads the view from several goroutines
// while rounds commit and answers close requests. Under -race it checks that
// publication orders a snapshot's writes before its readers. Every read must
// see a strictly ID-sorted set no larger than the initial one, and a page of
// a loaded snapshot must equal the same window of its whole view. The 1,200
// initial requests span many chunks.
func TestPendingViewConcurrentReaders(t *testing.T) {
	const items = 600
	e := pendingViewEngine(t, items)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := e.PendingView()
				view := v.All()
				if len(view) > 2*items || v.Len() != len(view) {
					t.Errorf("view holds %d requests (Len %d), more than the %d ever pending or a different count", len(view), v.Len(), 2*items)
					return
				}
				for i := 1; i < len(view); i++ {
					if view[i-1].ID >= view[i].ID {
						t.Errorf("view not strictly sorted at %d: %s, %s", i, view[i-1].ID, view[i].ID)
						return
					}
				}
				offset, limit := (i*37+r*101)%(len(view)+8), 1+(i*13)%(3*pendingChunk)
				if err := checkPage(v, view, offset, limit); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for n := 1; n <= items; n += 4 {
		b := e.NewAnswerBatch()
		if err := b.Answer(fmt.Sprintf("approve|%d", n), map[string]any{"ok": true}); err != nil {
			t.Error(err)
			break
		}
		if _, err := e.RunIncremental(b); err != nil {
			t.Error(err)
			break
		}
		if err := commitAnswer(e, fmt.Sprintf("approve|%d", n+1), map[string]any{"ok": false}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	readers.Wait()
	requireViewIsPendingSet(t, e, "after the concurrent rounds")
}

// TestOldPendingViewsAreCollected requires a published snapshot to become
// garbage once the engine has published a newer one and no reader holds it:
// the engine keeps only the newest snapshot, and a snapshot holds no pointer
// to the one before it, so a closed loop's heap does not grow with the
// number of commits.
func TestOldPendingViewsAreCollected(t *testing.T) {
	const items, rounds = 1000, 4
	e := pendingViewEngine(t, items)
	collected := make(chan struct{}, rounds)
	for n := 1; n <= rounds; n++ {
		runtime.SetFinalizer(e.PendingView(), func(*PendingView) { collected <- struct{}{} })
		b := e.NewAnswerBatch()
		if err := b.Answer(fmt.Sprintf("approve|%d", n), map[string]any{"ok": true}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunIncremental(b); err != nil {
			t.Fatal(err)
		}
	}
	for got, tries := 0, 0; got < rounds; {
		select {
		case <-collected:
			got++
		case <-time.After(10 * time.Millisecond):
			if tries++; tries > 200 {
				t.Fatalf("%d of %d superseded snapshots were collected", got, rounds)
			}
			runtime.GC()
		}
	}
	requireViewIsPendingSet(t, e, "after the rounds")
}

// pendingViewEngine returns an engine over pendingViewProgram with items
// items at its first fixpoint: 2*items pending requests.
func pendingViewEngine(t *testing.T, items int) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= items; n++ {
		if err := e.AddFact("item", n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

// pendingViewOps drives the engine's request bookkeeping directly — the
// same calls evaluation and ingestion make — from a byte stream, publishing
// after every batch, and checks every snapshot with checkPendingView against
// the sorted pending map. The ids are "r|<k>" for k below a universe of up
// to 4,000, so ID order is not numeric order. Each step is one of:
//   - admit a batch of ids (admitRequests; answered ids are skipped);
//   - close a batch of pending ids (closePendingLocked, as an answer does);
//   - withdraw a run of pending ids adjacent in ID order (withdrawLocked), so
//     chunks shrink below half and must merge;
//   - a full run: drop every request, then admit a share of the universe.
//
// The snapshot loaded before each publication must be unchanged after it,
// and the new one must share with it what the publication did not change
// (checkSharing). An input drives at most 64 steps, so no input runs for long.
func pendingViewOps(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	e, err := NewEngine(MustParse(pendingViewProgram))
	if err != nil {
		t.Fatal(err)
	}
	universe := 1 + (next()<<8|next())%4000
	rng := rand.New(rand.NewSource(int64(next())))
	req := func(k int) OpenRequest {
		return OpenRequest{ID: fmt.Sprintf("r|%d", k), Relation: "r", KeyColumns: []string{"n"}, KeyValues: []relstore.Value{relstore.Int(int64(k))}}
	}
	admit := func(n int) {
		var sink requestSink
		for ; n > 0; n-- {
			if r := req(rng.Intn(universe)); !sink.bump(r.ID) {
				sink.add(r)
			}
		}
		if err := e.admitRequests(&sink, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; len(data) > 0 && step < 64; step++ {
		kind, n := next()%4, 1+next()<<(next()%5)
		before := e.PendingView()
		beforeIDs := requestIDList(before.All())
		e.mu.Lock()
		pending := make([]string, 0, len(e.pending))
		for id := range e.pending {
			pending = append(pending, id)
		}
		sort.Strings(pending)
		switch kind {
		case 0:
			admit(n)
		case 1:
			for ; n > 0 && len(pending) > 0; n-- {
				e.closePendingLocked(pending[rng.Intn(len(pending))])
			}
		case 2:
			if len(pending) > 0 {
				from := rng.Intn(len(pending))
				for _, id := range pending[from:min(from+n, len(pending))] {
					e.withdrawLocked(id)
				}
			}
		case 3:
			e.dropAllRequestsLocked()
			admit(universe * next() / 255)
		}
		changed := make(map[string]bool, len(e.pendingChanged))
		for id := range e.pendingChanged {
			changed[id] = true
		}
		e.publishPendingLocked()
		e.mu.Unlock()
		want := pendingMapSorted(e)
		if got := e.PendingRequests(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (kind %d, n %d): view %v, want the sorted pending map %v", step, kind, n, requestIDList(got), requestIDList(want))
		}
		if err := checkPendingView(e.PendingView()); err != nil {
			t.Fatalf("step %d (kind %d, n %d): %v", step, kind, n, err)
		}
		if err := checkSharing(before, e.PendingView(), changed); err != nil {
			t.Fatalf("step %d (kind %d, n %d): %v", step, kind, n, err)
		}
		flat := []string{}
		for _, c := range before.chunks {
			flat = append(flat, pointerIDList(c)...)
		}
		if !reflect.DeepEqual(flat, beforeIDs) || !reflect.DeepEqual(requestIDList(before.All()), beforeIDs) {
			t.Fatalf("step %d: publication changed the snapshot loaded before it", step)
		}
	}
}

// TestPendingViewProperty runs pendingViewOps over random streams.
func TestPendingViewProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		data := make([]byte, 3+3*24)
		rng.Read(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) { pendingViewOps(t, data) })
	}
}

// TestPendingViewLastChunkChanges publishes changes whose ids all fall in
// the last chunk of a view of many chunks: it closes some of the chunk's
// requests and admits ids above every pending one. Every chunk before the
// last two (the one before the last may take in a run too small to stand
// alone) must be shared in place, at the same position of the new snapshot.
func TestPendingViewLastChunkChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 12; i++ {
		e, err := NewEngine(MustParse(pendingViewProgram))
		if err != nil {
			t.Fatal(err)
		}
		admit := func(ids []string) {
			var sink requestSink
			for _, id := range ids {
				if !sink.bump(id) {
					sink.add(OpenRequest{ID: id, Relation: "r"})
				}
			}
			if err := e.admitRequests(&sink, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		var ids []string
		for k := 500 + rng.Intn(1500); k > 0; k-- {
			ids = append(ids, fmt.Sprintf("r|%d", k))
		}
		e.mu.Lock()
		admit(ids)
		e.publishPendingLocked()
		e.mu.Unlock()
		for step := 0; step < 8; step++ {
			before := e.PendingView()
			last := before.chunks[len(before.chunks)-1]
			e.mu.Lock()
			for k := rng.Intn(len(last)); k > 0; k-- {
				e.closePendingLocked(last[rng.Intn(len(last))].ID)
			}
			var above []string
			for k := rng.Intn(2 * pendingChunk); k > 0; k-- {
				above = append(above, fmt.Sprintf("%s~%d", last[len(last)-1].ID, k))
			}
			admit(above)
			changed := make(map[string]bool, len(e.pendingChanged))
			for id := range e.pendingChanged {
				changed[id] = true
			}
			e.publishPendingLocked()
			e.mu.Unlock()
			after := e.PendingView()
			if err := checkPendingView(after); err != nil {
				t.Fatalf("view %d, step %d: %v", i, step, err)
			}
			if err := checkSharing(before, after, changed); err != nil {
				t.Fatalf("view %d, step %d: %v", i, step, err)
			}
			for j, c := range before.chunks[:max(len(before.chunks)-2, 0)] {
				if got := after.chunks[j]; &got[0] != &c[0] || len(got) != len(c) {
					t.Fatalf("view %d, step %d: chunk %d of %d, before the last chunk, was not shared in place", i, step, j, len(before.chunks))
				}
			}
		}
	}
}

// FuzzPendingView is pendingViewOps under coverage-guided fuzzing.
func FuzzPendingView(f *testing.F) {
	f.Add([]byte{0, 200, 7, 0, 255, 0, 1, 30, 2, 2, 64, 1, 3, 200, 0})
	f.Add([]byte{15, 0, 3, 3, 255, 255, 2, 90, 1, 2, 255, 4, 1, 255, 3, 0, 40, 4, 3, 10})
	f.Add([]byte{1, 0, 9, 0, 100, 0, 2, 31, 0, 2, 33, 0, 1, 31, 0, 2, 1, 1, 3, 0, 0})
	f.Fuzz(pendingViewOps)
}
