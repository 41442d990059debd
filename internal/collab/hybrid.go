package collab

import (
	"fmt"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// StageMode is how a hybrid dataflow stage coordinates its workers.
type StageMode string

// Stage coordination modes.
const (
	ModeSequential   StageMode = "sequential"
	ModeSimultaneous StageMode = "simultaneous"
)

// Stage is one step in a hybrid dataflow. Sequential stages route their
// workers one after another (each seeing the running output); simultaneous
// stages issue the step to all their workers in parallel and merge the
// answers.
type Stage struct {
	Name   string
	Mode   StageMode
	Kind   StepKind
	Prompt string
	// Fraction is the share of the team participating in the stage, in (0,1];
	// 0 means the whole team. Sequential stages route the selected members in
	// team order; simultaneous stages use them all in parallel.
	Fraction float64
	// MergePolicy chooses how a simultaneous stage's answers are combined:
	// "concat" (default) joins texts, "majority" reduces confirmed yes/no
	// answers to a verdict.
	MergePolicy string
}

// Hybrid interleaves sequential and simultaneous coordination in one complex
// dataflow (§2.3): "surveillance and correction tasks are executed as a
// sequential collaboration while the testimonials are provided
// simultaneously."
type Hybrid struct {
	Stages []Stage
}

// DefaultHybrid returns the surveillance-style dataflow used by the paper's
// third demo scenario: facts are collected and corrected sequentially by half
// the team, testimonials are provided simultaneously by the other half, and
// the outputs are merged with a majority confirmation.
func DefaultHybrid() *Hybrid {
	return &Hybrid{Stages: []Stage{
		{Name: "collect-facts", Mode: ModeSequential, Kind: StepFact, Prompt: "Report the facts you observed", Fraction: 0.5},
		{Name: "correct-facts", Mode: ModeSequential, Kind: StepCorrect, Prompt: "Correct the fact report if needed", Fraction: 0.5},
		{Name: "testimonials", Mode: ModeSimultaneous, Kind: StepTestimonial, Prompt: "Provide your independent testimonial", Fraction: 0.5, MergePolicy: "concat"},
		{Name: "confirmation", Mode: ModeSimultaneous, Kind: StepCheck, Prompt: "Do the collected facts match the testimonials?", Fraction: 0, MergePolicy: "majority"},
	}}
}

// Name implements Scheme.
func (h *Hybrid) Name() task.CollaborationScheme { return task.Hybrid }

// Run implements Scheme.
func (h *Hybrid) Run(t *task.Task, team []worker.ID, io WorkerIO) (Outcome, error) {
	if len(team) == 0 {
		return Outcome{}, ErrEmptyTeam
	}
	if len(h.Stages) == 0 {
		return Outcome{}, fmt.Errorf("collab: hybrid scheme has no stages")
	}
	out := Outcome{}
	input := primaryInput(t)
	current := ""
	var qualities []float64
	sections := make(map[string]string)

	perform := func(req StepRequest) (StepResponse, error) {
		resp, err := io.Perform(req)
		if err != nil {
			return StepResponse{}, fmt.Errorf("collab: step %s by %s failed: %w", req.Kind, req.Worker, err)
		}
		out.Trace = append(out.Trace, StepRecord{Request: req, Response: resp})
		return resp, nil
	}

	// Split the team: odd-indexed members handle even-numbered stages'
	// fractional pools so that sequential and simultaneous halves are
	// disjoint when Fraction = 0.5.
	stageWorkers := func(stage Stage, stageIdx int) []worker.ID {
		if stage.Fraction <= 0 || stage.Fraction >= 1 || len(team) == 1 {
			return team
		}
		n := int(float64(len(team))*stage.Fraction + 0.5)
		if n < 1 {
			n = 1
		}
		// Alternate halves by stage parity so different stages use different
		// members where possible.
		var pool []worker.ID
		for i, m := range team {
			if (i+stageIdx)%2 == 0 {
				pool = append(pool, m)
			}
		}
		if len(pool) < n {
			pool = team
		}
		return pool[:n]
	}

	round := 0
	for si, stage := range h.Stages {
		members := stageWorkers(stage, si)
		switch stage.Mode {
		case ModeSequential:
			for _, m := range members {
				round++
				resp, err := perform(StepRequest{
					TaskID: t.ID, Worker: m, Kind: stage.Kind, Round: round,
					Prompt: stage.Prompt,
					Input: map[string]string{
						"source": input, "text": current,
						"region": t.Input["region"], "period": t.Input["period"],
					},
				})
				if err != nil {
					return out, err
				}
				if txt := resp.Fields["text"]; txt != "" {
					current = txt
				}
				qualities = append(qualities, resp.Quality)
				out.TotalLatency += resp.Latency
			}
			sections[stage.Name] = current
		case ModeSimultaneous:
			round++
			var answers []StepResponse
			var roundLatency time.Duration
			for _, m := range members {
				resp, err := perform(StepRequest{
					TaskID: t.ID, Worker: m, Kind: stage.Kind, Round: round,
					Prompt: stage.Prompt,
					Input: map[string]string{
						"source": input, "text": current,
						"region": t.Input["region"], "period": t.Input["period"],
					},
				})
				if err != nil {
					return out, err
				}
				answers = append(answers, resp)
				qualities = append(qualities, resp.Quality)
				if resp.Latency > roundLatency {
					roundLatency = resp.Latency
				}
			}
			out.TotalLatency += roundLatency
			sections[stage.Name] = mergeStage(stage, members, answers)
		default:
			return out, fmt.Errorf("collab: unknown stage mode %q", stage.Mode)
		}
	}

	out.Rounds = round
	fields := map[string]string{"text": current}
	for name, text := range sections {
		fields["stage:"+name] = text
	}
	out.Result = &task.Result{
		TaskID:      t.ID,
		TeamID:      teamID(team),
		SubmittedBy: string(team[0]),
		Fields:      fields,
		Quality:     averageQuality(qualities),
	}
	return out, nil
}

// mergeStage combines a simultaneous stage's answers according to its policy.
func mergeStage(stage Stage, members []worker.ID, answers []StepResponse) string {
	switch stage.MergePolicy {
	case "majority":
		yes := 0
		for _, a := range answers {
			if boolField(a.Fields, "confirmed") {
				yes++
			}
		}
		verdict := "unconfirmed"
		if yes*2 > len(answers) {
			verdict = "confirmed"
		}
		return fmt.Sprintf("%s (%d/%d)", verdict, yes, len(answers))
	default: // concat
		parts := make(map[worker.ID]string, len(answers))
		for i, a := range answers {
			if i < len(members) {
				parts[members[i]] = a.Fields["text"]
			}
		}
		return mergeContributions(parts)
	}
}
