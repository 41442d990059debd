package cylog_test

import (
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/cylog/reference"
)

// retractionProgram is one negation program FuzzRetractionDifferential
// drives: the base relations facts may be added to, and how a worker answers
// its requests (nil when the program asks nothing).
type retractionProgram struct {
	program string
	base    []baseRelation
	answer  func(cylog.OpenRequest) map[string]any
}

// baseRelation names a relation facts may be added to; every column is an
// int.
type baseRelation struct {
	name  string
	arity int
}

var retractionPrograms = []retractionProgram{
	{cylog.DifferentialProgram, []baseRelation{{"node", 1}, {"edge", 2}}, labelAnswer},
	{approveRejectProgram, []baseRelation{{"item", 1}}, approveRejectAnswer},
	{guardedReachProgram, []baseRelation{{"edge", 2}, {"blocked", 1}}, nil},
	{seededOpenProgram, []baseRelation{{"a", 1}, {"b", 1}}, seededOpenAnswer},
	{cylog.IncrementalProgram, []baseRelation{{"node", 1}, {"edge", 2}}, labelAnswer},
	{negationShapesProgram, []baseRelation{{"item", 1}, {"tag", 2}, {"stop", 1}, {"hot", 1}}, voteAnswer},
	{layeredReachProgram, []baseRelation{{"node", 1}, {"edge", 2}, {"cut", 1}}, checkAnswer},
}

// fuzzStream hands out the fuzz input one byte at a time, then zeros.
type fuzzStream []byte

func (s *fuzzStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// FuzzRetractionDifferential drives the counting path with arbitrary streams
// of facts and answers. The input picks a negation program (those of
// TestDerivationCountsMatchReference) and a worker count, the seed facts of the first full Run, and then up to eight
// RunIncremental rounds, each a mix of AddFacts (which block, unblock and
// extend derivations) and answers to pending requests. After every run the
// engine must match the from-scratch reference, facts and requests, and its
// stored derivation counts and request support must match
// reference.Derivations.
func FuzzRetractionDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 6, 1, 1, 2, 1, 2, 3, 0, 1, 0, 2, 0, 3, 4, 1, 0, 1, 3, 0, 5, 3, 1, 1, 0, 4})
	f.Add([]byte{1, 1, 5, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 4, 1, 0, 1, 1, 1, 2, 0, 0, 6, 3, 1, 0, 1, 1})
	f.Add([]byte{2, 0, 8, 0, 1, 2, 0, 2, 3, 0, 3, 1, 0, 1, 3, 1, 2, 0, 4, 1, 3, 0, 2, 5, 0, 5, 1, 1, 2})
	f.Add([]byte{3, 1, 6, 0, 1, 0, 2, 0, 3, 1, 2, 0, 4, 0, 5, 5, 1, 0, 1, 1, 0, 0, 6, 1, 0, 3, 1, 2, 0, 1})
	f.Add([]byte{4, 0, 9, 0, 1, 0, 2, 0, 3, 1, 1, 2, 0, 4, 4, 1, 0, 1, 1, 0, 1, 3, 4, 0, 1, 4, 4, 1, 2, 0, 2, 1, 1})
	f.Add([]byte{5, 1, 10, 0, 3, 0, 4, 0, 5, 1, 3, 4, 1, 4, 6, 3, 6, 0, 7, 1, 7, 7, 6, 1, 0, 1, 1, 0, 3, 5, 0, 0, 2, 0, 1, 2, 6})
	f.Add([]byte{6, 0, 10, 0, 1, 0, 2, 0, 3, 1, 1, 2, 1, 2, 3, 1, 3, 1, 5, 1, 0, 1, 1, 0, 2, 2, 1, 5, 2, 1, 0, 0, 1, 0, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzStream(data)
		p := retractionPrograms[in.next()%len(retractionPrograms)]
		e, err := cylog.NewEngine(cylog.MustParse(p.program))
		if err != nil {
			t.Fatal(err)
		}
		e.SetParallelism(1 + in.next()%2)
		addFact := func() {
			rel := p.base[in.next()%len(p.base)]
			vals := make([]any, rel.arity)
			for i := range vals {
				vals[i] = in.next() % 8
			}
			if err := e.AddFact(rel.name, vals...); err != nil {
				t.Fatal(err)
			}
		}
		check := func(round int, err error) {
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := reference.Check(e, reference.BaseFacts(e)); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if err := checkCounts(e); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		for n := in.next() % 12; n > 0; n-- {
			addFact()
		}
		reqs, err := e.Run()
		check(0, err)
		for round := 1; round <= 8 && len(in) > 0; round++ {
			batch := e.NewAnswerBatch()
			for ops := in.next() % 8; ops > 0; ops-- {
				if in.next()%2 == 0 || p.answer == nil || len(reqs) == 0 {
					addFact()
					continue
				}
				r := reqs[in.next()%len(reqs)]
				// A request picked twice in a round is rejected the second
				// time; the batch records it and commits the rest.
				batch.Answer(r.ID, p.answer(r)) //nolint:errcheck
			}
			_, err = e.RunIncremental(batch)
			check(round, err)
			reqs = e.PendingRequests()
		}
	})
}
