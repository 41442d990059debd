package cylog

// incrementalProgram is the multi-stratum differential workload for the
// batched, delta-seeded answer pipeline. Stratum 0 derives reach/source/
// endpoint/labeled, stratum 1 {unlabeled, lonely, deadend} reads
// node/endpoint positively and labeled, reach and source under negation, and
// stratum 2 verifies labels against lonely. Answering label requests
// therefore delta-seeds strata 0 and 2 and retracts through stratum 1.
const incrementalProgram = `
rel node(n: int).
rel edge(a: int, b: int).
rel reach(a: int, b: int).
rel source(n: int).
rel endpoint(n: int).
open rel label(n: int, tag: string) key(n) asks "Label this node".
rel labeled(n: int, tag: string).
rel unlabeled(n: int).
rel lonely(n: int).
rel deadend(n: int).
rel verified(n: int).

reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
source(X) :- edge(X, _).
endpoint(N) :- node(N), !edge(N, _).
labeled(N, T) :- node(N), label(N, T).
unlabeled(N) :- node(N), !labeled(N, _).
lonely(N) :- endpoint(N), !reach(_, N).
deadend(N) :- endpoint(N), !source(N).
verified(N) :- labeled(N, _), !lonely(N).
`

// Programs the package cylog_test differentials share with the in-package
// tests.
const (
	DifferentialProgram       = differentialProgram
	IncrementalProgram        = incrementalProgram
	SequentialWorkflowProgram = sequentialWorkflowProgram
)

// RequestSupport returns every request's support summed over its origin
// strata, for the count checks against reference.Derivations.
func (e *Engine) RequestSupport() map[string]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]int, len(e.requestSupport))
	for id, support := range e.requestSupport {
		for _, n := range support {
			out[id] += n
		}
	}
	return out
}
