package collab

import (
	"fmt"
	"strings"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// Simultaneous implements the simultaneous collaboration scheme: "Crowd4U
// first assigns the task to solicit her SNS ID (e.g., Google account) to
// communicate with other members in the team. After all the members are in the
// 'undertakes' status, the collaborative task is generated and assigned to all
// the members with the list of obtained IDs. The members work together with
// any collaboration tool (e.g., Google docs). The result of the collaborative
// task is submitted by one of the team members, but recorded as the result
// produced by the team."
//
// The shared external tool is modelled by a SharedDocument session: each
// member's parallel contribution is appended to the session and merged; the
// first member then reviews and submits the merged text on behalf of the team.
type Simultaneous struct{}

// Name implements Scheme.
func (s *Simultaneous) Name() task.CollaborationScheme { return task.Simultaneous }

// Run implements Scheme.
func (s *Simultaneous) Run(t *task.Task, team []worker.ID, io WorkerIO) (Outcome, error) {
	if len(team) == 0 {
		return Outcome{}, ErrEmptyTeam
	}
	out := Outcome{}
	input := primaryInput(t)

	perform := func(req StepRequest) (StepResponse, error) {
		resp, err := io.Perform(req)
		if err != nil {
			return StepResponse{}, fmt.Errorf("collab: step %s by %s failed: %w", req.Kind, req.Worker, err)
		}
		out.Trace = append(out.Trace, StepRecord{Request: req, Response: resp})
		return resp, nil
	}

	// Round 1: solicit SNS / contact ids. These steps run in parallel, so the
	// round latency is the slowest member's latency.
	snsIDs := make([]string, 0, len(team))
	var roundLatency time.Duration
	for _, m := range team {
		resp, err := perform(StepRequest{
			TaskID: t.ID, Worker: m, Kind: StepSNS, Round: 1,
			Prompt: "Share your contact id so the team can coordinate",
			Input:  map[string]string{"topic": input},
		})
		if err != nil {
			return out, err
		}
		id := resp.Fields["sns_id"]
		if id == "" {
			id = string(m)
		}
		snsIDs = append(snsIDs, id)
		if resp.Latency > roundLatency {
			roundLatency = resp.Latency
		}
	}
	out.TotalLatency += roundLatency

	// Round 2: the collaborative task is assigned to all members with the list
	// of ids; each contributes to the shared document in parallel.
	doc := &SharedDocument{}
	contributions := make(map[worker.ID]string, len(team))
	qualities := make([]float64, 0, len(team))
	roundLatency = 0
	for _, m := range team {
		resp, err := perform(StepRequest{
			TaskID: t.ID, Worker: m, Kind: StepContribute, Round: 2,
			Prompt: t.Title,
			Input: map[string]string{
				"topic":   input,
				"section": t.Input["section"],
				"members": strings.Join(snsIDs, ", "),
			},
		})
		if err != nil {
			return out, err
		}
		text := resp.Fields["text"]
		contributions[m] = text
		doc.Append(text)
		qualities = append(qualities, resp.Quality)
		if resp.Latency > roundLatency {
			roundLatency = resp.Latency
		}
	}
	out.TotalLatency += roundLatency

	// Round 3: one member (the first) submits the merged document; the result
	// is recorded as the team's.
	merged := doc.Text()
	if merged == "" {
		merged = mergeContributions(contributions)
	}
	submit, err := perform(StepRequest{
		TaskID: t.ID, Worker: team[0], Kind: StepSubmit, Round: 3,
		Prompt: "Review the shared document and submit it for the team",
		Input:  map[string]string{"topic": input, "document": merged},
	})
	if err != nil {
		return out, err
	}
	out.TotalLatency += submit.Latency
	final := submit.Fields["text"]
	if final == "" {
		final = merged
	}

	out.Rounds = 3
	out.Result = &task.Result{
		TaskID:      t.ID,
		TeamID:      teamID(team),
		SubmittedBy: string(team[0]),
		Fields: map[string]string{
			"text":    final,
			"members": strings.Join(snsIDs, ", "),
		},
		Quality: averageQuality(qualities),
	}
	return out, nil
}
