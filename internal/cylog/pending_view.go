package cylog

import (
	"sort"
	"sync"
)

// pendingChunk is the target number of requests per chunk of a published
// PendingView. Every chunk holds between pendingChunk/2 and 2*pendingChunk
// requests, unless the whole view holds fewer than pendingChunk/2 (then it
// is one chunk), so a view of P requests has at most 2P/pendingChunk chunks.
const pendingChunk = 64

// PendingView is an immutable snapshot of an engine's pending open requests,
// sorted by ID, as published by the last operation that changed the set.
//
// It is stored as a list of sorted chunks of request pointers with prefix
// offsets. A request is allocated once, when it joins the pending set, and
// every snapshot that holds it shares that pointer. A publication copies
// only the chunks its changed ids fall in, and those as runs of pointers
// between the changed ids, and shares every other chunk with the snapshot
// before it. So a commit that changes Δ of P requests copies the chunk list,
// O(P/pendingChunk), and for each changed id makes one binary search and
// copies at most one chunk of pointers, instead of copying all P requests.
// Len is O(1), Page is O(log P + limit), and All flattens the snapshot once,
// on first use, and caches the slice.
//
// A published snapshot never changes, and neither does a request it points
// to: any number of goroutines may read it without a lock, and a reader that
// loaded one keeps seeing that set while later commits publish new
// snapshots. The engine holds only the newest snapshot, so an older one is
// garbage as soon as its last reader drops it.
type PendingView struct {
	chunks [][]*OpenRequest
	// starts[i] is the position of chunks[i][0] in the ID-sorted view, and
	// starts[len(chunks)] is the view's length.
	starts []int

	flatOnce sync.Once
	flat     []OpenRequest
}

// newPendingView wraps chunks (sorted, non-empty, in ID order) in a snapshot
// with their prefix offsets.
func newPendingView(chunks [][]*OpenRequest) *PendingView {
	starts := make([]int, len(chunks)+1)
	for i, c := range chunks {
		starts[i+1] = starts[i] + len(c)
	}
	return &PendingView{chunks: chunks, starts: starts}
}

// Len returns the number of pending requests in the snapshot.
func (v *PendingView) Len() int { return v.starts[len(v.chunks)] }

// Page returns the requests at positions [offset, offset+limit) of the
// ID-sorted snapshot, cut off at its end; it is empty when offset is at or
// past the end. The slice is fresh and the caller's, but the requests it
// points to are the snapshot's, shared with every reader: they are
// read-only, like All's slice. The chunk holding offset is found by binary
// search over the prefix offsets.
func (v *PendingView) Page(offset, limit int) []*OpenRequest {
	n := v.Len()
	if offset < 0 {
		offset = 0
	}
	if offset >= n || limit <= 0 {
		return nil
	}
	limit = min(limit, n-offset)
	out := make([]*OpenRequest, 0, limit)
	i := sort.Search(len(v.chunks), func(i int) bool { return v.starts[i+1] > offset })
	from := offset - v.starts[i]
	for ; len(out) < limit; i++ {
		c := v.chunks[i][from:]
		out = append(out, c[:min(len(c), limit-len(out))]...)
		from = 0
	}
	return out
}

// All returns every request of the snapshot, sorted by ID. The slice is
// built on the first call and shared by every caller of this snapshot: it
// must not be modified.
func (v *PendingView) All() []OpenRequest {
	v.flatOnce.Do(func() {
		v.flat = make([]OpenRequest, 0, v.Len())
		for _, c := range v.chunks {
			for _, r := range c {
				v.flat = append(v.flat, *r)
			}
		}
	})
	return v.flat
}

// publish returns the snapshot that follows v once the requests with the
// given ids (sorted, distinct) have joined or left the pending set: an id
// found in pending is in the new snapshot, any other is not. Each id falls
// in the chunk whose first ID is the greatest not above it (the first chunk
// for ids below every chunk). Those chunks are merged with their ids into
// fresh runs; a run above 2*pendingChunk is split, and one below
// pendingChunk/2 is joined to the chunk before it (or, at the front, to the
// one after it). Every other chunk is shared with v: the chunks before the
// first touched one are found by one binary search over the chunks' first
// IDs and shared in one append.
func (v *PendingView) publish(ids []string, pending map[string]*OpenRequest) *PendingView {
	old := v.chunks
	if len(old) == 0 {
		old = [][]*OpenRequest{nil}
	}
	out := make([][]*OpenRequest, 0, len(old)+len(ids)/pendingChunk+1)
	first := 0 // the chunk ids[0] falls in
	if len(ids) > 0 {
		first = sort.Search(len(old)-1, func(i int) bool { return old[i+1][0].ID > ids[0] })
	}
	out = append(out, old[:first]...)
	// carry is a fresh run too small to stand alone with no chunk before it
	// to join: it is prepended to the next chunk.
	var carry []*OpenRequest
	for i := first; i < len(old); i++ {
		c := old[i]
		if len(ids) == 0 && carry == nil {
			out = append(out, old[i:]...)
			break
		}
		k := len(ids) // ids[:k] fall in c: below the next chunk's first ID
		if i+1 < len(old) {
			k = sort.SearchStrings(ids, old[i+1][0].ID)
		}
		if k == 0 && carry == nil {
			out = append(out, c)
			continue
		}
		run := mergeChunk(carry, c, ids[:k], pending)
		ids, carry = ids[k:], nil
		switch {
		case len(run) == 0:
		case len(run) >= pendingChunk/2:
			out = appendSplit(out, run)
		case len(out) > 0:
			last := out[len(out)-1]
			joined := make([]*OpenRequest, 0, len(last)+len(run))
			out = appendSplit(out[:len(out)-1], append(append(joined, last...), run...))
		default:
			carry = run
		}
	}
	if len(carry) > 0 {
		out = append(out, carry)
	}
	return newPendingView(out)
}

// mergeChunk returns a fresh run: carry (all below c's IDs) followed by the
// sorted chunk c with the changed ids applied — an id found in pending is
// inserted or replaced, any other is dropped. Each id is found by binary
// search in what is left of c, and the run of requests before it is copied
// whole, so the merge costs O(len(ids)·log len(c)) string comparisons plus
// one copy of the chunk's pointers.
func mergeChunk(carry, c []*OpenRequest, ids []string, pending map[string]*OpenRequest) []*OpenRequest {
	out := make([]*OpenRequest, 0, len(carry)+len(c)+len(ids))
	out = append(out, carry...)
	j := 0
	for _, id := range ids {
		rest := c[j:]
		k := j + sort.Search(len(rest), func(i int) bool { return rest[i].ID >= id })
		out = append(out, c[j:k]...)
		j = k
		if j < len(c) && c[j].ID == id {
			j++
		}
		if r, ok := pending[id]; ok {
			out = append(out, r)
		}
	}
	return append(out, c[j:]...)
}

// appendSplit appends the fresh run to out as one chunk, or, above
// 2*pendingChunk, as ceil(len/pendingChunk) chunks of near-equal size, each
// between pendingChunk/2 and pendingChunk. The pieces share run's backing
// array, capped so that none can grow into the next.
func appendSplit(out [][]*OpenRequest, run []*OpenRequest) [][]*OpenRequest {
	if len(run) <= 2*pendingChunk {
		return append(out, run)
	}
	k := (len(run) + pendingChunk - 1) / pendingChunk
	for p := 0; p < k; p++ {
		lo, hi := p*len(run)/k, (p+1)*len(run)/k
		out = append(out, run[lo:hi:hi])
	}
	return out
}
