// Package assign implements Crowd4U's collaborative task-assignment component
// (§2.2): given the pool of workers who are Eligible for and InterestedIn a
// task, it finds a team — a clique in the worker affinity graph — that
// maximises intra-team affinity while satisfying the task's skill (quality),
// cost and upper-critical-mass constraints.
//
// The underlying optimisation problem is NP-complete (Rahman et al., ICDM'15),
// so the package provides an exact branch-and-bound solver for small candidate
// pools together with several practical approximation algorithms, plus the
// baselines used by the experiments in EXPERIMENTS.md.
package assign

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// Candidate is one worker available for a task, with the factors the
// algorithms consult. Candidates are built by the controller from the worker
// manager.
type Candidate struct {
	ID    worker.ID
	Skill float64 // proficiency in the task's required skill, in [0,1]
	Cost  float64 // wage / effort units charged if selected
}

// Team is a proposed group of workers for one task.
type Team struct {
	TaskID  task.ID
	Members []worker.ID
	// Affinity is the mean pairwise affinity of the team.
	Affinity float64
	// TotalAffinity is the sum of pairwise affinities (the objective of [9]).
	TotalAffinity float64
	// Skill is the aggregate (sum) skill of the members.
	Skill float64
	// Cost is the total cost of the members.
	Cost float64
	// Algorithm records which algorithm produced the team.
	Algorithm string
}

// Size returns the number of members.
func (t Team) Size() int { return len(t.Members) }

// Contains reports whether the worker is on the team.
func (t Team) Contains(id worker.ID) bool {
	for _, m := range t.Members {
		if m == id {
			return true
		}
	}
	return false
}

// String renders a short description of the team.
func (t Team) String() string {
	return fmt.Sprintf("team(%s size=%d affinity=%.3f skill=%.2f cost=%.1f via %s)",
		t.TaskID, len(t.Members), t.Affinity, t.Skill, t.Cost, t.Algorithm)
}

// Problem is one team-formation instance: the candidate pool, the affinity
// matrix restricted to it, and the task constraints.
type Problem struct {
	Task       *task.Task
	Candidates []Candidate
	Affinity   *worker.AffinityMatrix
}

// ErrInfeasible is returned when no team satisfying the constraints exists in
// the candidate pool. The platform reacts by suggesting the requester relax
// their input (§2.2.1).
var ErrInfeasible = errors.New("assign: no feasible team for the given constraints")

// Algorithm is a team-formation strategy.
type Algorithm interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// FormTeam returns the best team the algorithm can find for the problem,
	// or ErrInfeasible.
	FormTeam(p Problem) (Team, error)
}

// candidateByID builds a lookup map.
func candidateByID(cands []Candidate) map[worker.ID]Candidate {
	m := make(map[worker.ID]Candidate, len(cands))
	for _, c := range cands {
		m[c.ID] = c
	}
	return m
}

// evaluate computes the team metrics for a member set.
func evaluate(p Problem, members []worker.ID, algo string) Team {
	byID := candidateByID(p.Candidates)
	t := Team{TaskID: p.Task.ID, Members: append([]worker.ID(nil), members...), Algorithm: algo}
	sort.Slice(t.Members, func(i, j int) bool { return t.Members[i] < t.Members[j] })
	for _, m := range t.Members {
		c := byID[m]
		t.Skill += c.Skill
		t.Cost += c.Cost
	}
	t.Affinity = p.Affinity.GroupAffinity(t.Members)
	t.TotalAffinity = p.Affinity.TotalAffinity(t.Members)
	return t
}

// feasible checks the structural constraints of §2.2 for a member set:
// team-size bounds (min size, upper critical mass), per-worker minimum skill,
// aggregate team skill (quality), cost budget and minimum pairwise affinity.
func feasible(p Problem, members []worker.ID) bool {
	c := p.Task.Constraints
	if len(members) < c.MinTeamSize || len(members) > c.UpperCriticalMass {
		return false
	}
	byID := candidateByID(p.Candidates)
	skill, cost := 0.0, 0.0
	for _, m := range members {
		cand, ok := byID[m]
		if !ok {
			return false
		}
		if c.RequiredSkill != "" && cand.Skill < c.MinSkill {
			return false
		}
		skill += cand.Skill
		cost += cand.Cost
	}
	if skill < c.MinTeamSkill {
		return false
	}
	if c.CostBudget > 0 && cost > c.CostBudget {
		return false
	}
	if c.MinPairAffinity > 0 && p.Affinity.MinPairAffinity(members) < c.MinPairAffinity {
		return false
	}
	return true
}

// better orders teams by the optimisation objective: higher total affinity
// first, then higher skill, then lower cost, then smaller size, then members
// lexicographically for determinism.
func better(a, b Team) bool {
	if a.TotalAffinity != b.TotalAffinity {
		return a.TotalAffinity > b.TotalAffinity
	}
	if a.Skill != b.Skill {
		return a.Skill > b.Skill
	}
	if a.Cost != b.Cost {
		return a.Cost < b.Cost
	}
	if len(a.Members) != len(b.Members) {
		return len(a.Members) < len(b.Members)
	}
	return fmt.Sprint(a.Members) < fmt.Sprint(b.Members)
}

// filterEligibleCandidates drops candidates that can never appear in a
// feasible team (below the per-worker minimum skill). All algorithms apply it
// first; the paper notes that "skills are used to filter out unqualified
// workers".
func filterEligibleCandidates(p Problem) []Candidate {
	c := p.Task.Constraints
	out := make([]Candidate, 0, len(p.Candidates))
	for _, cand := range p.Candidates {
		if c.RequiredSkill != "" && cand.Skill < c.MinSkill {
			continue
		}
		out = append(out, cand)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExactBranchAndBound enumerates candidate subsets up to the critical mass
// with affinity-based pruning, returning a provably optimal team. Its running
// time grows combinatorially, matching the paper's statement that optimal
// assignment "is often infeasible for a large real-time crowdsourcing
// platform"; it is used as the quality yardstick in experiment E3 and for
// small pools in production.
type ExactBranchAndBound struct {
	// MaxCandidates guards against accidental exponential blow-ups; pools
	// larger than this return an error. 0 means DefaultExactLimit.
	MaxCandidates int
}

// DefaultExactLimit is the largest candidate pool the exact solver accepts by
// default.
const DefaultExactLimit = 24

// Name implements Algorithm.
func (ExactBranchAndBound) Name() string { return "exact" }

// FormTeam implements Algorithm.
func (e ExactBranchAndBound) FormTeam(p Problem) (Team, error) {
	limit := e.MaxCandidates
	if limit <= 0 {
		limit = DefaultExactLimit
	}
	cands := filterEligibleCandidates(p)
	if len(cands) > limit {
		return Team{}, fmt.Errorf("assign: exact solver limited to %d candidates, got %d", limit, len(cands))
	}
	cons := p.Task.Constraints
	ids := make([]worker.ID, len(cands))
	for i, c := range cands {
		ids[i] = c.ID
	}

	var best Team
	found := false
	cur := make([]worker.ID, 0, cons.UpperCriticalMass)

	// Precompute, for pruning, the highest affinity any pair can contribute.
	maxPair := 0.0
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if a := p.Affinity.Get(ids[i], ids[j]); a > maxPair {
				maxPair = a
			}
		}
	}

	var rec func(start int)
	rec = func(start int) {
		if len(cur) >= cons.MinTeamSize && feasible(p, cur) {
			t := evaluate(p, cur, "exact")
			if !found || better(t, best) {
				best, found = t, true
			}
		}
		if len(cur) == cons.UpperCriticalMass {
			return
		}
		for i := start; i < len(ids); i++ {
			cur = append(cur, ids[i])
			// Upper bound on the total affinity reachable from this prefix: the
			// current total plus maxPair for every pair still addable.
			if found {
				curTotal := p.Affinity.TotalAffinity(cur)
				remaining := cons.UpperCriticalMass - len(cur)
				addablePairs := remaining*(remaining-1)/2 + remaining*len(cur)
				if curTotal+float64(addablePairs)*maxPair < best.TotalAffinity-1e-12 {
					cur = cur[:len(cur)-1]
					continue
				}
			}
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)

	if !found {
		return Team{}, ErrInfeasible
	}
	return best, nil
}

// AffinityGreedy grows a team by repeatedly adding the candidate whose
// addition increases total affinity the most, starting from the best pair,
// and stops once the constraints are satisfied and no addition improves the
// objective (or the critical mass is reached). It is the workhorse practical
// algorithm, in the spirit of [9]'s efficient heuristics.
type AffinityGreedy struct{}

// Name implements Algorithm.
func (AffinityGreedy) Name() string { return "greedy" }

// FormTeam implements Algorithm.
func (AffinityGreedy) FormTeam(p Problem) (Team, error) {
	cands := filterEligibleCandidates(p)
	cons := p.Task.Constraints
	if len(cands) == 0 {
		return Team{}, ErrInfeasible
	}

	// Seed: for teams of size >=2, the highest-affinity feasible pair; for
	// min size 1, the highest-skill candidate.
	var members []worker.ID
	if cons.UpperCriticalMass == 1 || len(cands) == 1 {
		bestIdx, bestSkill := -1, -1.0
		for i, c := range cands {
			if c.Skill > bestSkill {
				bestIdx, bestSkill = i, c.Skill
			}
		}
		members = []worker.ID{cands[bestIdx].ID}
	} else {
		bi, bj, bestAff := -1, -1, -1.0
		for i := 0; i < len(cands); i++ {
			for j := i + 1; j < len(cands); j++ {
				a := p.Affinity.Get(cands[i].ID, cands[j].ID)
				if a > bestAff {
					bi, bj, bestAff = i, j, a
				}
			}
		}
		members = []worker.ID{cands[bi].ID, cands[bj].ID}
	}

	in := make(map[worker.ID]bool, len(members))
	for _, m := range members {
		in[m] = true
	}

	// Grow while it helps: prefer reaching feasibility, then higher affinity.
	for len(members) < cons.UpperCriticalMass {
		bestGain, bestID := math.Inf(-1), worker.ID("")
		for _, c := range cands {
			if in[c.ID] {
				continue
			}
			gain := 0.0
			for _, m := range members {
				gain += p.Affinity.Get(c.ID, m)
			}
			// Respect the cost budget greedily.
			if cons.CostBudget > 0 {
				cost := c.Cost
				byID := candidateByID(cands)
				for _, m := range members {
					cost += byID[m].Cost
				}
				if cost > cons.CostBudget {
					continue
				}
			}
			if gain > bestGain {
				bestGain, bestID = gain, c.ID
			}
		}
		if bestID == "" {
			break
		}
		needMore := !feasible(p, members)
		if !needMore && bestGain <= 0 {
			break
		}
		members = append(members, bestID)
		in[bestID] = true
	}

	// Shrink pass: if infeasible due to cost or pair-affinity floors, try
	// dropping the weakest member.
	for len(members) > cons.MinTeamSize && !feasible(p, members) {
		worstIdx, worstContribution := -1, math.Inf(1)
		for i, m := range members {
			contrib := 0.0
			for j, o := range members {
				if i != j {
					contrib += p.Affinity.Get(m, o)
				}
			}
			if contrib < worstContribution {
				worstIdx, worstContribution = i, contrib
			}
		}
		members = append(members[:worstIdx], members[worstIdx+1:]...)
	}

	if !feasible(p, members) {
		return Team{}, ErrInfeasible
	}
	return evaluate(p, members, "greedy"), nil
}

// StarGreedy builds one candidate team per "seed" worker by taking the seed's
// highest-affinity neighbours up to the critical mass, and returns the best
// feasible star. It approximates [9]'s grouping strategy and is cheap:
// O(n^2 log n) overall.
type StarGreedy struct{}

// Name implements Algorithm.
func (StarGreedy) Name() string { return "star" }

// FormTeam implements Algorithm.
func (StarGreedy) FormTeam(p Problem) (Team, error) {
	cands := filterEligibleCandidates(p)
	cons := p.Task.Constraints
	if len(cands) == 0 {
		return Team{}, ErrInfeasible
	}
	var best Team
	found := false
	for _, seed := range cands {
		// Sort the other candidates by affinity to the seed.
		others := make([]Candidate, 0, len(cands)-1)
		for _, c := range cands {
			if c.ID != seed.ID {
				others = append(others, c)
			}
		}
		sort.Slice(others, func(i, j int) bool {
			ai := p.Affinity.Get(seed.ID, others[i].ID)
			aj := p.Affinity.Get(seed.ID, others[j].ID)
			if ai != aj {
				return ai > aj
			}
			return others[i].ID < others[j].ID
		})
		members := []worker.ID{seed.ID}
		for _, o := range others {
			if len(members) >= cons.UpperCriticalMass {
				break
			}
			members = append(members, o.ID)
			if cons.CostBudget > 0 {
				t := evaluate(p, members, "star")
				if t.Cost > cons.CostBudget {
					members = members[:len(members)-1]
					continue
				}
			}
		}
		// Try all prefixes of the star, keeping the best feasible one.
		for size := cons.MinTeamSize; size <= len(members); size++ {
			sub := members[:size]
			if feasible(p, sub) {
				t := evaluate(p, sub, "star")
				if !found || better(t, best) {
					best, found = t, true
				}
			}
		}
	}
	if !found {
		return Team{}, ErrInfeasible
	}
	return best, nil
}

// GRASP runs a randomised greedy construction followed by local search
// (swap one member for one outsider while it improves the objective),
// repeated for Iterations rounds, keeping the best feasible team. With a
// fixed Seed it is deterministic.
type GRASP struct {
	Iterations int
	// Alpha controls greediness of the construction phase: 0 = purely greedy,
	// 1 = purely random among eligible candidates.
	Alpha float64
	Seed  int64
}

// Name implements Algorithm.
func (GRASP) Name() string { return "grasp" }

// FormTeam implements Algorithm.
func (g GRASP) FormTeam(p Problem) (Team, error) {
	iters := g.Iterations
	if iters <= 0 {
		iters = 20
	}
	alpha := g.Alpha
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	cands := filterEligibleCandidates(p)
	cons := p.Task.Constraints
	if len(cands) == 0 {
		return Team{}, ErrInfeasible
	}
	rng := newSplitMix(uint64(g.Seed) ^ 0x9e3779b97f4a7c15)

	var best Team
	found := false
	for it := 0; it < iters; it++ {
		members := constructRandomized(p, cands, cons, alpha, rng)
		if len(members) == 0 {
			continue
		}
		members = localSearch(p, cands, members)
		if feasible(p, members) {
			t := evaluate(p, members, "grasp")
			if !found || better(t, best) {
				best, found = t, true
			}
		}
	}
	if !found {
		// Fall back to the deterministic greedy: GRASP should never be worse
		// than refusing to answer when greedy can find something.
		t, err := (AffinityGreedy{}).FormTeam(p)
		if err != nil {
			return Team{}, ErrInfeasible
		}
		t.Algorithm = "grasp"
		return t, nil
	}
	return best, nil
}

func constructRandomized(p Problem, cands []Candidate, cons task.Constraints, alpha float64, rng *splitMix) []worker.ID {
	members := []worker.ID{cands[int(rng.next()%uint64(len(cands)))].ID}
	in := map[worker.ID]bool{members[0]: true}
	for len(members) < cons.UpperCriticalMass {
		type scored struct {
			id   worker.ID
			gain float64
		}
		var pool []scored
		for _, c := range cands {
			if in[c.ID] {
				continue
			}
			gain := 0.0
			for _, m := range members {
				gain += p.Affinity.Get(c.ID, m)
			}
			pool = append(pool, scored{c.ID, gain})
		}
		if len(pool) == 0 {
			break
		}
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].gain != pool[j].gain {
				return pool[i].gain > pool[j].gain
			}
			return pool[i].id < pool[j].id
		})
		// Restricted candidate list: the top (alpha-blended) slice.
		rclSize := 1 + int(alpha*float64(len(pool)-1))
		pick := pool[int(rng.next()%uint64(rclSize))]
		members = append(members, pick.id)
		in[pick.id] = true
		if len(members) >= cons.MinTeamSize && feasible(p, members) && rng.next()%2 == 0 {
			break
		}
	}
	return members
}

func localSearch(p Problem, cands []Candidate, members []worker.ID) []worker.ID {
	in := make(map[worker.ID]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	improved := true
	for improved {
		improved = false
		cur := evaluate(p, members, "ls")
		curFeasible := feasible(p, members)
		for i := 0; i < len(members) && !improved; i++ {
			for _, c := range cands {
				if in[c.ID] {
					continue
				}
				trial := append([]worker.ID(nil), members...)
				trial[i] = c.ID
				trialFeasible := feasible(p, trial)
				t := evaluate(p, trial, "ls")
				if (trialFeasible && !curFeasible) || (trialFeasible == curFeasible && better(t, cur)) {
					delete(in, members[i])
					in[c.ID] = true
					members = trial
					improved = true
					break
				}
			}
		}
	}
	return members
}

// splitMix is a tiny deterministic PRNG (SplitMix64); the package avoids
// math/rand so that experiment runs are reproducible across Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// RandomAssignment picks a uniformly random feasible team; it is the weakest
// baseline in experiment E3.
type RandomAssignment struct {
	Seed     int64
	Attempts int
}

// Name implements Algorithm.
func (RandomAssignment) Name() string { return "random" }

// FormTeam implements Algorithm.
func (r RandomAssignment) FormTeam(p Problem) (Team, error) {
	attempts := r.Attempts
	if attempts <= 0 {
		attempts = 50
	}
	cands := filterEligibleCandidates(p)
	cons := p.Task.Constraints
	if len(cands) == 0 {
		return Team{}, ErrInfeasible
	}
	rng := newSplitMix(uint64(r.Seed) ^ 0xdeadbeefcafef00d)
	for a := 0; a < attempts; a++ {
		size := cons.MinTeamSize
		if cons.UpperCriticalMass > cons.MinTeamSize {
			size += int(rng.next() % uint64(cons.UpperCriticalMass-cons.MinTeamSize+1))
		}
		if size > len(cands) {
			size = len(cands)
		}
		perm := rng.perm(len(cands))
		members := make([]worker.ID, 0, size)
		for _, idx := range perm[:size] {
			members = append(members, cands[idx].ID)
		}
		if feasible(p, members) {
			return evaluate(p, members, "random"), nil
		}
	}
	return Team{}, ErrInfeasible
}

func (s *splitMix) perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SkillOnlyGreedy ignores affinity entirely and picks the highest-skill
// workers; it is the ablation showing why affinity-aware assignment matters
// (collaboration effectiveness, not just individual quality).
type SkillOnlyGreedy struct{}

// Name implements Algorithm.
func (SkillOnlyGreedy) Name() string { return "skill-only" }

// FormTeam implements Algorithm.
func (SkillOnlyGreedy) FormTeam(p Problem) (Team, error) {
	cands := filterEligibleCandidates(p)
	cons := p.Task.Constraints
	if len(cands) == 0 {
		return Team{}, ErrInfeasible
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Skill != cands[j].Skill {
			return cands[i].Skill > cands[j].Skill
		}
		return cands[i].ID < cands[j].ID
	})
	var members []worker.ID
	for _, c := range cands {
		if len(members) >= cons.UpperCriticalMass {
			break
		}
		members = append(members, c.ID)
		if cons.CostBudget > 0 {
			if t := evaluate(p, members, "skill-only"); t.Cost > cons.CostBudget {
				members = members[:len(members)-1]
				continue
			}
		}
		if len(members) >= cons.MinTeamSize && feasible(p, members) {
			// Keep adding only while below critical mass and team skill target
			// not yet exceeded; skill-only has no affinity reason to grow.
			if t := evaluate(p, members, "skill-only"); t.Skill >= cons.MinTeamSkill {
				break
			}
		}
	}
	if !feasible(p, members) {
		return Team{}, ErrInfeasible
	}
	return evaluate(p, members, "skill-only"), nil
}

// Registry returns the named algorithm, allowing project descriptions and the
// web UI's constraint form to select one by name. Unknown names return nil.
func Registry(name string) Algorithm {
	switch name {
	case "exact":
		return ExactBranchAndBound{}
	case "greedy", "":
		return AffinityGreedy{}
	case "star":
		return StarGreedy{}
	case "grasp":
		return GRASP{Iterations: 30, Alpha: 0.3, Seed: 1}
	case "random":
		return RandomAssignment{Seed: 1}
	case "skill-only":
		return SkillOnlyGreedy{}
	default:
		return nil
	}
}
