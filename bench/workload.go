package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strconv"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api/wire"
)

// labelProgram is crowdserve's demo labeling program. Every answered round
// recomputes the negated flagged stratum over all items.
const labelProgram = `
rel item(id: int).
open rel label(id: int, ok: bool) key(id) asks "Is this item acceptable?".
rel labeled(id: int).
rel flagged(id: int).

labeled(I) :- item(I), label(I, true).
flagged(I) :- item(I), !labeled(I).
`

// translateProgram is the paper's sequential collaboration: a translation
// answer opens a check request, and a positive check derives the final
// subtitle. All rules are positive, so rounds only add facts.
const translateProgram = `
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

// Served defaults shared by every workload: crowdserve's deriver cadence,
// the feed page a worker fetches, and the durable workload's storage.
const (
	projectID      = "bench"
	commitInterval = 25 * time.Millisecond
	pageSize       = 20
	senders        = 2 // sending goroutines, each on its own connection
	snapshotEvery  = 64
	setupRepeats   = 9
)

// workload is one traffic mix against one project.
type workload struct {
	name    string
	program string
	// seedRel is the base relation seeded at setup (initial facts, one open
	// request each) and, when factEvery > 0, posted by the requester while
	// the workload runs.
	seedRel string
	initial int
	// closed selects a closed loop: each sender starts its next operation
	// when the previous one completes. Otherwise the loop is open: answer
	// operations are due at rate per second whatever the service does.
	closed bool
	rate   float64
	// factEvery > 0 makes the requester post one new seed fact per
	// factEvery answers.
	factEvery int
	durable   bool
}

// workloads are the benchmark's traffic mixes; README.md gives the reason
// for each and the calibration of their sizes and rates on the recording
// host (bench/baseline.json holds the runs).
var workloads = []workload{
	// Every round recomputes the negated stratum over all items under the
	// engine lock. 1000 items keep a commit well under the 25 ms cadence
	// even when the host slows, and a quarter of the backlog is still open
	// when a 25 s window closes.
	{name: "label-backlog", program: labelProgram, seedRel: "item", initial: 1000, rate: 30},
	// One new sentence per two answers holds about 1000 open tasks. 50/s is
	// the largest multiple of 50 that keeps gen.lag_p99_ms under 5 ms.
	{name: "translate-steady", program: translateProgram, seedRel: "sentence", initial: 1000, rate: 50, factEvery: 2},
	// The same traffic through an fsynced WAL and the disk backend at its
	// default budget, which the state fits: under a budget the state
	// outgrows, the seed's disk backend loses facts while it serves
	// (README.md, findings), so paging cannot be benchmarked yet.
	{name: "translate-durable", program: translateProgram, seedRel: "sentence", initial: 1000, rate: 50, factEvery: 2, durable: true},
	// The translate mix as fast as acks return.
	{name: "translate-saturate", program: translateProgram, seedRel: "sentence", initial: 1000, closed: true, factEvery: 2},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// smoke shrinks a workload to a size that sets up in milliseconds.
func (w workload) smoke() workload {
	if w.seedRel == "item" {
		w.initial = 300
	} else {
		w.initial = 50
	}
	if w.rate > 0 {
		w.rate = 100
	}
	return w
}

// seedFact returns the values of the n-th seed fact. They depend on n only,
// so every seed sees the same base data.
func (w workload) seedFact(n int) []any {
	if w.seedRel == "item" {
		return []any{n}
	}
	return []any{n, fmt.Sprintf("subtitle line %d: the quick brown fox jumps over the lazy dog", n)}
}

// mix hashes the seed and a key into 64 well-mixed bits (FNV-1a followed by
// the splitmix64 finalizer).
func mix(seed int64, key string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// answerValues derives a task's answer from the seed and the request id
// alone, so the final state does not depend on which sender answered it or
// when.
func answerValues(seed int64, tv wire.TaskView) map[string]any {
	h := mix(seed, tv.ID)
	out := make(map[string]any, len(tv.OpenColumns))
	for _, col := range tv.OpenColumns {
		if col == "ok" {
			out[col] = h%4 != 0
			continue
		}
		out[col] = "translation " + strconv.FormatUint(h, 16) + " of " + tv.ID
	}
	return out
}

// op is one scheduled operation of an open loop.
type op struct {
	due time.Duration // offset from the start of the window
	// fact marks a requester operation (post one new seed fact); otherwise
	// the operation fetches a feed page and answers one task on it.
	fact  bool
	pages pageChoice
}

// pageChoice seeds where an answer operation looks for a task: the feed
// offset as a share of the pending set, and the rotation of the first task
// tried on the page.
type pageChoice struct {
	offset float64
	pick   int
}

// next returns the page to try when every task on this one was claimed:
// the offset steps by the golden ratio so retries spread over the feed.
func (c pageChoice) next() pageChoice {
	c.offset += 0.6180339887498949
	if c.offset >= 1 {
		c.offset--
	}
	return c
}

func drawPage(rng *rand.Rand) pageChoice {
	return pageChoice{offset: rng.Float64(), pick: rng.IntN(pageSize)}
}

// openSchedule draws an open loop's operations: round(rate × window) answer
// operations at uniformly random times in [0, window) — a Poisson process
// conditioned on its count, so the offered rate is exact — plus one
// requester operation per factEvery answers, due with the answer that
// triggers it.
func openSchedule(seed int64, rate float64, window time.Duration, factEvery int) []op {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	n := int(rate*window.Seconds() + 0.5)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int64N(int64(window)))
	}
	slices.Sort(dues)
	ops := make([]op, 0, n+n/max(factEvery, 1))
	for i, d := range dues {
		ops = append(ops, op{due: d, pages: drawPage(rng)})
		if factEvery > 0 && (i+1)%factEvery == 0 {
			ops = append(ops, op{due: d, fact: true})
		}
	}
	return ops
}

// workerRNG is a closed-loop sender's stream of page choices.
func workerRNG(seed int64, sender int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(sender)+1))
}
