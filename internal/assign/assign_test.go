package assign

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// buildProblem constructs a synthetic problem with n candidates whose skills
// ramp from 0.5 to 1.0 and whose affinities are generated deterministically.
func buildProblem(t testing.TB, n int, cons task.Constraints) Problem {
	t.Helper()
	tk := task.NewTask("t1", "p1", "test task", task.Sequential, cons)
	aff := worker.NewAffinityMatrix()
	cands := make([]Candidate, 0, n)
	for i := 0; i < n; i++ {
		id := worker.ID(fmt.Sprintf("w%02d", i))
		cands = append(cands, Candidate{ID: id, Skill: 0.5 + 0.5*float64(i)/float64(maxInt(n-1, 1)), Cost: 1})
	}
	rng := newSplitMix(42)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			aff.Set(cands[i].ID, cands[j].ID, rng.float())
		}
	}
	return Problem{Task: tk, Candidates: cands, Affinity: aff}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clusteredProblem(t testing.TB, cons task.Constraints) Problem {
	t.Helper()
	// Two clusters: {a1,a2,a3} with affinity 0.9 inside, {b1,b2,b3} with 0.8
	// inside, 0.1 across. Skills equal so affinity decides.
	tk := task.NewTask("t1", "p1", "clustered", task.Sequential, cons)
	aff := worker.NewAffinityMatrix()
	ids := []worker.ID{"a1", "a2", "a3", "b1", "b2", "b3"}
	var cands []Candidate
	for _, id := range ids {
		cands = append(cands, Candidate{ID: id, Skill: 0.7, Cost: 1})
	}
	for i, x := range ids {
		for j := i + 1; j < len(ids); j++ {
			y := ids[j]
			sameCluster := x[0] == y[0]
			switch {
			case sameCluster && x[0] == 'a':
				aff.Set(x, y, 0.9)
			case sameCluster:
				aff.Set(x, y, 0.8)
			default:
				aff.Set(x, y, 0.1)
			}
		}
	}
	return Problem{Task: tk, Candidates: cands, Affinity: aff}
}

func TestTeamHelpers(t *testing.T) {
	team := Team{TaskID: "t", Members: []worker.ID{"a", "b"}}
	if team.Size() != 2 || !team.Contains("a") || team.Contains("c") {
		t.Error("Team helpers misbehave")
	}
	if team.String() == "" {
		t.Error("String should render")
	}
}

func TestFeasibleChecksAllConstraints(t *testing.T) {
	cons := task.Constraints{
		RequiredSkill: "translation", MinSkill: 0.6, MinTeamSkill: 1.2,
		UpperCriticalMass: 3, MinTeamSize: 2, CostBudget: 5, MinPairAffinity: 0.2,
	}
	p := buildProblem(t, 6, cons)
	p.Affinity.SetDefault(0.5)

	if feasible(p, []worker.ID{"w05"}) {
		t.Error("team below MinTeamSize should be infeasible")
	}
	if feasible(p, []worker.ID{"w02", "w03", "w04", "w05"}) {
		t.Error("team above critical mass should be infeasible")
	}
	if feasible(p, []worker.ID{"w00", "w05"}) {
		t.Error("member below MinSkill should make the team infeasible")
	}
	if feasible(p, []worker.ID{"w02", "unknown"}) {
		t.Error("unknown member should make the team infeasible")
	}
	if !feasible(p, []worker.ID{"w04", "w05"}) {
		t.Error("high-skill pair should be feasible")
	}
	// Cost budget.
	expensive := buildProblem(t, 4, task.Constraints{UpperCriticalMass: 4, MinTeamSize: 2, CostBudget: 1.5})
	if feasible(expensive, []worker.ID{"w00", "w01"}) {
		t.Error("cost above budget should be infeasible")
	}
	// Pair-affinity floor.
	floor := clusteredProblem(t, task.Constraints{UpperCriticalMass: 4, MinTeamSize: 2, MinPairAffinity: 0.5})
	if feasible(floor, []worker.ID{"a1", "b1"}) {
		t.Error("cross-cluster pair below the affinity floor should be infeasible")
	}
	if !feasible(floor, []worker.ID{"a1", "a2"}) {
		t.Error("in-cluster pair should satisfy the affinity floor")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	p := clusteredProblem(t, task.Constraints{UpperCriticalMass: 3, MinTeamSize: 2})
	team := evaluate(p, []worker.ID{"a2", "a1", "a3"}, "test")
	if team.Size() != 3 || team.Members[0] != "a1" {
		t.Error("members should be sorted")
	}
	if team.Affinity != 0.9 {
		t.Errorf("Affinity = %v", team.Affinity)
	}
	if team.TotalAffinity != 2.7 {
		t.Errorf("TotalAffinity = %v", team.TotalAffinity)
	}
	if team.Skill < 2.09 || team.Skill > 2.11 {
		t.Errorf("Skill = %v", team.Skill)
	}
	if team.Cost != 3 {
		t.Errorf("Cost = %v", team.Cost)
	}
}

func TestExactFindsOptimalCluster(t *testing.T) {
	p := clusteredProblem(t, task.Constraints{UpperCriticalMass: 3, MinTeamSize: 3})
	team, err := (ExactBranchAndBound{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []worker.ID{"a1", "a2", "a3"}
	for i, m := range want {
		if team.Members[i] != m {
			t.Fatalf("exact team = %v, want %v", team.Members, want)
		}
	}
	if team.Affinity != 0.9 {
		t.Errorf("affinity = %v", team.Affinity)
	}
}

func TestExactRespectsCandidateLimit(t *testing.T) {
	p := buildProblem(t, 30, task.Constraints{UpperCriticalMass: 3, MinTeamSize: 2})
	if _, err := (ExactBranchAndBound{}).FormTeam(p); err == nil {
		t.Error("pools above the limit should be rejected")
	}
	if _, err := (ExactBranchAndBound{MaxCandidates: 40}).FormTeam(p); err != nil {
		t.Errorf("raised limit should work: %v", err)
	}
}

func TestExactInfeasible(t *testing.T) {
	p := buildProblem(t, 5, task.Constraints{RequiredSkill: "x", MinSkill: 2, UpperCriticalMass: 3, MinTeamSize: 2})
	if _, err := (ExactBranchAndBound{}).FormTeam(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestGreedyPrefersHighAffinityCluster(t *testing.T) {
	p := clusteredProblem(t, task.Constraints{UpperCriticalMass: 3, MinTeamSize: 2})
	team, err := (AffinityGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range team.Members {
		if m[0] != 'a' {
			t.Errorf("greedy team should stay inside the high-affinity cluster, got %v", team.Members)
		}
	}
	if team.Affinity < 0.85 {
		t.Errorf("greedy affinity = %v", team.Affinity)
	}
}

func TestGreedySingletonTeam(t *testing.T) {
	p := buildProblem(t, 5, task.Constraints{UpperCriticalMass: 1, MinTeamSize: 1})
	team, err := (AffinityGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if team.Size() != 1 || team.Members[0] != "w04" {
		t.Errorf("singleton team should pick the highest-skill worker, got %v", team.Members)
	}
}

func TestGreedyRespectsCostBudget(t *testing.T) {
	cons := task.Constraints{UpperCriticalMass: 5, MinTeamSize: 2, CostBudget: 3}
	p := buildProblem(t, 10, cons)
	team, err := (AffinityGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if team.Cost > 3 {
		t.Errorf("cost %v exceeds budget", team.Cost)
	}
}

func TestGreedyInfeasibleEmptyPool(t *testing.T) {
	tk := task.NewTask("t", "p", "x", task.Sequential, task.Constraints{}.Normalize())
	p := Problem{Task: tk, Affinity: worker.NewAffinityMatrix()}
	if _, err := (AffinityGreedy{}).FormTeam(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestStarGreedyFindsCluster(t *testing.T) {
	p := clusteredProblem(t, task.Constraints{UpperCriticalMass: 3, MinTeamSize: 3})
	team, err := (StarGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if team.Affinity < 0.85 {
		t.Errorf("star affinity = %v, want ~0.9", team.Affinity)
	}
}

func TestGRASPDeterministicWithSeed(t *testing.T) {
	p := buildProblem(t, 15, task.Constraints{UpperCriticalMass: 4, MinTeamSize: 3})
	g := GRASP{Iterations: 10, Alpha: 0.3, Seed: 7}
	a, err := g.FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Members) != fmt.Sprint(b.Members) {
		t.Errorf("GRASP with fixed seed should be deterministic: %v vs %v", a.Members, b.Members)
	}
}

func TestGRASPAtLeastAsGoodAsRandom(t *testing.T) {
	p := buildProblem(t, 20, task.Constraints{UpperCriticalMass: 4, MinTeamSize: 4})
	grasp, err := (GRASP{Iterations: 25, Alpha: 0.3, Seed: 3}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := (RandomAssignment{Seed: 3}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if grasp.TotalAffinity < rnd.TotalAffinity-1e-9 {
		t.Errorf("GRASP (%.3f) should not be worse than random (%.3f)", grasp.TotalAffinity, rnd.TotalAffinity)
	}
}

func TestRandomAssignmentFeasible(t *testing.T) {
	p := buildProblem(t, 12, task.Constraints{UpperCriticalMass: 4, MinTeamSize: 2})
	team, err := (RandomAssignment{Seed: 11}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible(p, team.Members) {
		t.Error("random team should be feasible")
	}
	// Infeasible constraints exhaust attempts.
	hard := buildProblem(t, 5, task.Constraints{RequiredSkill: "x", MinSkill: 2, UpperCriticalMass: 2, MinTeamSize: 2})
	if _, err := (RandomAssignment{Seed: 1, Attempts: 5}).FormTeam(hard); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestSkillOnlyPicksTopSkill(t *testing.T) {
	p := buildProblem(t, 10, task.Constraints{UpperCriticalMass: 2, MinTeamSize: 2})
	team, err := (SkillOnlyGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if !team.Contains("w09") || !team.Contains("w08") {
		t.Errorf("skill-only should pick the two highest-skill workers, got %v", team.Members)
	}
}

func TestSkillOnlyIgnoresAffinityAblation(t *testing.T) {
	// Give the two highest-skill workers terrible mutual affinity; skill-only
	// still teams them while greedy avoids the pairing — the ablation that
	// motivates affinity-aware assignment.
	p := clusteredProblem(t, task.Constraints{UpperCriticalMass: 2, MinTeamSize: 2})
	for i := range p.Candidates {
		if p.Candidates[i].ID == "a1" || p.Candidates[i].ID == "b1" {
			p.Candidates[i].Skill = 0.99
		}
	}
	skillTeam, err := (SkillOnlyGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	greedyTeam, err := (AffinityGreedy{}).FormTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	if skillTeam.Affinity >= greedyTeam.Affinity {
		t.Errorf("expected skill-only affinity (%.2f) below greedy affinity (%.2f)", skillTeam.Affinity, greedyTeam.Affinity)
	}
}

// algorithmNames lists every name Registry resolves.
var algorithmNames = []string{"exact", "greedy", "star", "grasp", "random", "skill-only"}

func TestAllAlgorithmsProduceFeasibleTeams(t *testing.T) {
	cons := task.Constraints{UpperCriticalMass: 4, MinTeamSize: 2, RequiredSkill: "s", MinSkill: 0.55, MinTeamSkill: 1.2}
	p := buildProblem(t, 16, cons)
	for _, name := range algorithmNames {
		algo := Registry(name)
		if algo == nil {
			t.Fatalf("Registry(%q) = nil", name)
		}
		if name == "exact" {
			algo = ExactBranchAndBound{MaxCandidates: 20}
		}
		team, err := algo.FormTeam(p)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !feasible(p, team.Members) {
			t.Errorf("%s produced an infeasible team %v", name, team.Members)
		}
		if team.Size() < cons.MinTeamSize || team.Size() > cons.UpperCriticalMass {
			t.Errorf("%s team size %d out of bounds", name, team.Size())
		}
	}
}

func TestHeuristicsNeverBeatExact(t *testing.T) {
	// Optimality gap check on small instances: exact >= every heuristic.
	for trial := 0; trial < 5; trial++ {
		cons := task.Constraints{UpperCriticalMass: 4, MinTeamSize: 3}
		p := buildProblem(t, 10+trial, cons)
		exact, err := (ExactBranchAndBound{}).FormTeam(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"greedy", "star", "grasp", "random", "skill-only"} {
			team, err := Registry(name).FormTeam(p)
			if err != nil {
				continue
			}
			if team.TotalAffinity > exact.TotalAffinity+1e-9 {
				t.Errorf("trial %d: %s total affinity %.4f exceeds exact %.4f", trial, name, team.TotalAffinity, exact.TotalAffinity)
			}
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if Registry("nonsense") != nil {
		t.Error("unknown algorithm should return nil")
	}
	if Registry("") == nil {
		t.Error("empty name should default to greedy")
	}
	for _, n := range algorithmNames {
		if a := Registry(n); a == nil || a.Name() != n {
			t.Errorf("Registry(%q).Name() mismatch", n)
		}
	}
}

func TestGreedyPropertyTeamsWithinBounds(t *testing.T) {
	f := func(seed uint32, nRaw, ucmRaw uint8) bool {
		n := int(nRaw%20) + 2
		ucm := int(ucmRaw%5) + 1
		cons := task.Constraints{UpperCriticalMass: ucm, MinTeamSize: 1}
		tk := task.NewTask("t", "p", "x", task.Sequential, cons.Normalize())
		aff := worker.NewAffinityMatrix()
		var cands []Candidate
		rng := newSplitMix(uint64(seed))
		for i := 0; i < n; i++ {
			cands = append(cands, Candidate{ID: worker.ID(fmt.Sprintf("w%d", i)), Skill: rng.float(), Cost: 1})
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				aff.Set(cands[i].ID, cands[j].ID, rng.float())
			}
		}
		p := Problem{Task: tk, Candidates: cands, Affinity: aff}
		team, err := (AffinityGreedy{}).FormTeam(p)
		if err != nil {
			return true // infeasible is acceptable
		}
		return team.Size() >= 1 && team.Size() <= ucm && feasible(p, team.Members)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSplitMixDeterminism(t *testing.T) {
	a, b := newSplitMix(5), newSplitMix(5)
	for i := 0; i < 10; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed should give the same stream")
		}
	}
	f := newSplitMix(9).float()
	if f < 0 || f >= 1 {
		t.Errorf("float() = %v out of [0,1)", f)
	}
	perm := newSplitMix(3).perm(10)
	seen := make(map[int]bool)
	for _, x := range perm {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Errorf("perm is not a permutation: %v", perm)
	}
}
