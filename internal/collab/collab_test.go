package collab

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/task"
	"github.com/crowd4u/crowd4u-go/internal/worker"
)

// scriptedIO is a WorkerIO for tests: it answers steps from a table keyed by
// step kind, recording every request.
type scriptedIO struct {
	mu       sync.Mutex
	requests []StepRequest
	// answers maps a step kind to a function producing the response.
	answers map[StepKind]func(StepRequest) StepResponse
	// failOn makes the given kind return an error.
	failOn StepKind
}

func (s *scriptedIO) Perform(req StepRequest) (StepResponse, error) {
	s.mu.Lock()
	s.requests = append(s.requests, req)
	s.mu.Unlock()
	if s.failOn != "" && req.Kind == s.failOn {
		return StepResponse{}, errors.New("scripted failure")
	}
	if fn, ok := s.answers[req.Kind]; ok {
		return fn(req), nil
	}
	return StepResponse{Fields: map[string]string{"text": "default"}, Quality: 0.5}, nil
}

func (s *scriptedIO) kinds() []StepKind {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StepKind, len(s.requests))
	for i, r := range s.requests {
		out[i] = r.Kind
	}
	return out
}

func textResponse(text string, q float64) func(StepRequest) StepResponse {
	return func(StepRequest) StepResponse {
		return StepResponse{Fields: map[string]string{"text": text}, Quality: q, Latency: 10 * time.Millisecond}
	}
}

func confirmResponse(yes bool) func(StepRequest) StepResponse {
	v := "no"
	if yes {
		v = "yes"
	}
	return func(StepRequest) StepResponse {
		return StepResponse{Fields: map[string]string{"confirmed": v, "comment": "checked"}, Quality: 0.8, Latency: 5 * time.Millisecond}
	}
}

func newSeqTask() *task.Task {
	t := task.NewTask("t-seq", "p1", "Translate subtitle", task.Sequential, task.Constraints{UpperCriticalMass: 3})
	t.Input["sentence"] = "Hello world"
	return t
}

func team(n int) []worker.ID {
	out := make([]worker.ID, n)
	for i := range out {
		out[i] = worker.ID(fmt.Sprintf("w%d", i+1))
	}
	return out
}

func TestSequentialHappyPath(t *testing.T) {
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepDraft:   textResponse("draft translation", 0.6),
		StepImprove: textResponse("improved translation", 0.9),
		StepCheck:   confirmResponse(true),
	}}
	seq := &Sequential{MaxFixRounds: 1}
	out, err := seq.Run(newSeqTask(), team(3), io)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result == nil || out.Result.Fields["text"] != "improved translation" {
		t.Fatalf("result = %+v", out.Result)
	}
	if out.Result.TeamID != "team:w1+w2+w3" {
		t.Errorf("team id = %q", out.Result.TeamID)
	}
	kinds := io.kinds()
	// draft, check, improve(w2), check, improve(w3), check
	want := []StepKind{StepDraft, StepCheck, StepImprove, StepCheck, StepImprove, StepCheck}
	if len(kinds) != len(want) {
		t.Fatalf("steps = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("step %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	if out.Result.Quality <= 0.5 || out.Result.Quality > 1 {
		t.Errorf("quality = %v", out.Result.Quality)
	}
	if out.TotalLatency == 0 {
		t.Error("latency should accumulate")
	}
	if seq.Name() != task.Sequential {
		t.Error("Name mismatch")
	}
}

func TestSequentialCheckFailTriggersFix(t *testing.T) {
	checks := 0
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepDraft:   textResponse("bad draft", 0.3),
		StepImprove: textResponse("improved", 0.8),
		StepFix:     textResponse("fixed draft", 0.7),
		StepCheck: func(req StepRequest) StepResponse {
			checks++
			// First check fails, later checks pass.
			return confirmResponse(checks > 1)(req)
		},
	}}
	out, err := (&Sequential{MaxFixRounds: 2}).Run(newSeqTask(), team(2), io)
	if err != nil {
		t.Fatal(err)
	}
	kinds := io.kinds()
	foundFix := false
	for _, k := range kinds {
		if k == StepFix {
			foundFix = true
		}
	}
	if !foundFix {
		t.Errorf("a failed check should dynamically generate a fix step: %v", kinds)
	}
	// The final text comes from the last improvement.
	if out.Result.Fields["text"] != "improved" {
		t.Errorf("final text = %q", out.Result.Fields["text"])
	}
}

func TestSequentialSingleWorkerSkipsChecks(t *testing.T) {
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepDraft: textResponse("solo work", 0.7),
	}}
	out, err := (&Sequential{SkipCheck: true}).Run(newSeqTask(), team(1), io)
	if err != nil {
		t.Fatal(err)
	}
	if len(io.kinds()) != 1 {
		t.Errorf("steps = %v", io.kinds())
	}
	if out.Result.Fields["text"] != "solo work" {
		t.Errorf("text = %q", out.Result.Fields["text"])
	}
}

func TestSequentialEmptyTeamAndErrors(t *testing.T) {
	if _, err := (&Sequential{}).Run(newSeqTask(), nil, &scriptedIO{}); !errors.Is(err, ErrEmptyTeam) {
		t.Errorf("want ErrEmptyTeam, got %v", err)
	}
	io := &scriptedIO{failOn: StepDraft}
	if _, err := (&Sequential{}).Run(newSeqTask(), team(2), io); err == nil {
		t.Error("draft failure should propagate")
	}
	io2 := &scriptedIO{failOn: StepCheck, answers: map[StepKind]func(StepRequest) StepResponse{
		StepDraft: textResponse("d", 0.5),
	}}
	if _, err := (&Sequential{}).Run(newSeqTask(), team(2), io2); err == nil {
		t.Error("check failure should propagate")
	}
}

func newSimTask() *task.Task {
	t := task.NewTask("t-sim", "p1", "Write a festival report", task.Simultaneous, task.Constraints{UpperCriticalMass: 4})
	t.Input["topic"] = "city festival"
	return t
}

func TestSimultaneousHappyPath(t *testing.T) {
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepSNS: func(req StepRequest) StepResponse {
			return StepResponse{Fields: map[string]string{"sns_id": string(req.Worker) + "@sns"}, Latency: 3 * time.Millisecond}
		},
		StepContribute: func(req StepRequest) StepResponse {
			return StepResponse{Fields: map[string]string{"text": "paragraph by " + string(req.Worker)}, Quality: 0.8, Latency: 20 * time.Millisecond}
		},
		StepSubmit: func(req StepRequest) StepResponse {
			return StepResponse{Fields: map[string]string{"text": req.Input["document"]}, Quality: 0.9, Latency: 2 * time.Millisecond}
		},
	}}
	sim := &Simultaneous{}
	out, err := sim.Run(newSimTask(), team(3), io)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Name() != task.Simultaneous {
		t.Error("Name mismatch")
	}
	if out.Rounds != 3 {
		t.Errorf("rounds = %d", out.Rounds)
	}
	// SNS ids are gathered and passed to contributors.
	var contributeReq *StepRequest
	for i := range io.requests {
		if io.requests[i].Kind == StepContribute {
			contributeReq = &io.requests[i]
			break
		}
	}
	if contributeReq == nil || !strings.Contains(contributeReq.Input["members"], "w2@sns") {
		t.Errorf("contribute step should receive member SNS ids, got %+v", contributeReq)
	}
	// The result is submitted by one member but contains everyone's text.
	if out.Result.SubmittedBy != "w1" {
		t.Errorf("SubmittedBy = %s", out.Result.SubmittedBy)
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		if !strings.Contains(out.Result.Fields["text"], "paragraph by "+w) {
			t.Errorf("merged text missing contribution from %s: %q", w, out.Result.Fields["text"])
		}
	}
	// Parallel rounds use the max latency, not the sum: 3 + 20 + 2 = 25ms.
	if out.TotalLatency != 25*time.Millisecond {
		t.Errorf("TotalLatency = %v, want 25ms", out.TotalLatency)
	}
}

func TestSimultaneousDefaultsAndErrors(t *testing.T) {
	// Workers that return no SNS id fall back to their worker id; empty
	// submit falls back to the merged document.
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepSNS:        func(StepRequest) StepResponse { return StepResponse{Fields: map[string]string{}} },
		StepContribute: textResponse("shared paragraph", 0.5),
		StepSubmit:     func(StepRequest) StepResponse { return StepResponse{Fields: map[string]string{}} },
	}}
	out, err := (&Simultaneous{}).Run(newSimTask(), team(2), io)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Result.Fields["members"], "w1") {
		t.Errorf("members = %q", out.Result.Fields["members"])
	}
	if !strings.Contains(out.Result.Fields["text"], "shared paragraph") {
		t.Errorf("text = %q", out.Result.Fields["text"])
	}
	if _, err := (&Simultaneous{}).Run(newSimTask(), nil, io); !errors.Is(err, ErrEmptyTeam) {
		t.Error("empty team should fail")
	}
	if _, err := (&Simultaneous{}).Run(newSimTask(), team(2), &scriptedIO{failOn: StepSNS}); err == nil {
		t.Error("sns failure should propagate")
	}
	if _, err := (&Simultaneous{}).Run(newSimTask(), team(2), &scriptedIO{failOn: StepContribute}); err == nil {
		t.Error("contribute failure should propagate")
	}
	if _, err := (&Simultaneous{}).Run(newSimTask(), team(2), &scriptedIO{failOn: StepSubmit}); err == nil {
		t.Error("submit failure should propagate")
	}
}

func newHybridTask() *task.Task {
	t := task.NewTask("t-hyb", "p1", "Disaster surveillance", task.Hybrid, task.Constraints{UpperCriticalMass: 4})
	t.Input["region"] = "north"
	t.Input["period"] = "morning"
	return t
}

func TestHybridDefaultDataflow(t *testing.T) {
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepFact:    textResponse("bridge damaged", 0.7),
		StepCorrect: textResponse("bridge damaged, road closed", 0.8),
		StepTestimonial: func(req StepRequest) StepResponse {
			return StepResponse{Fields: map[string]string{"text": "I saw it from " + string(req.Worker)}, Quality: 0.6}
		},
		StepCheck: confirmResponse(true),
	}}
	h := DefaultHybrid()
	out, err := h.Run(newHybridTask(), team(4), io)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name() != task.Hybrid {
		t.Error("Name mismatch")
	}
	if out.Result.Fields["text"] != "bridge damaged, road closed" {
		t.Errorf("final facts = %q", out.Result.Fields["text"])
	}
	if !strings.Contains(out.Result.Fields["stage:testimonials"], "I saw it") {
		t.Errorf("testimonials = %q", out.Result.Fields["stage:testimonials"])
	}
	confirmed, votes := majorityConfirmed(out.Result.Fields["stage:confirmation"])
	if !confirmed || votes == 0 {
		t.Errorf("confirmation = %q", out.Result.Fields["stage:confirmation"])
	}
	// Both sequential (fact/correct) and simultaneous (testimonial/check)
	// kinds must appear — the defining property of hybrid coordination.
	kindSet := make(map[StepKind]bool)
	for _, k := range io.kinds() {
		kindSet[k] = true
	}
	for _, k := range []StepKind{StepFact, StepCorrect, StepTestimonial, StepCheck} {
		if !kindSet[k] {
			t.Errorf("missing step kind %s in %v", k, io.kinds())
		}
	}
}

func TestHybridMajorityUnconfirmed(t *testing.T) {
	io := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepFact:        textResponse("fact", 0.5),
		StepCorrect:     textResponse("fact", 0.5),
		StepTestimonial: textResponse("testimonial", 0.5),
		StepCheck:       confirmResponse(false),
	}}
	out, err := DefaultHybrid().Run(newHybridTask(), team(4), io)
	if err != nil {
		t.Fatal(err)
	}
	confirmed, _ := majorityConfirmed(out.Result.Fields["stage:confirmation"])
	if confirmed {
		t.Errorf("all-no votes should be unconfirmed: %q", out.Result.Fields["stage:confirmation"])
	}
}

func TestHybridErrorsAndEdgeCases(t *testing.T) {
	if _, err := DefaultHybrid().Run(newHybridTask(), nil, &scriptedIO{}); !errors.Is(err, ErrEmptyTeam) {
		t.Error("empty team should fail")
	}
	if _, err := (&Hybrid{}).Run(newHybridTask(), team(2), &scriptedIO{}); err == nil {
		t.Error("hybrid with no stages should fail")
	}
	if _, err := DefaultHybrid().Run(newHybridTask(), team(4), &scriptedIO{failOn: StepFact}); err == nil {
		t.Error("sequential stage failure should propagate")
	}
	if _, err := DefaultHybrid().Run(newHybridTask(), team(4), &scriptedIO{failOn: StepTestimonial, answers: map[StepKind]func(StepRequest) StepResponse{
		StepFact: textResponse("f", 0.5), StepCorrect: textResponse("f", 0.5),
	}}); err == nil {
		t.Error("simultaneous stage failure should propagate")
	}
	bad := &Hybrid{Stages: []Stage{{Name: "x", Mode: "teleport", Kind: StepFact}}}
	if _, err := bad.Run(newHybridTask(), team(2), &scriptedIO{}); err == nil {
		t.Error("unknown stage mode should fail")
	}
	// Single-member team still works (fractions collapse to the whole team).
	solo := &scriptedIO{answers: map[StepKind]func(StepRequest) StepResponse{
		StepFact: textResponse("f", 0.5), StepCorrect: textResponse("f2", 0.5),
		StepTestimonial: textResponse("t", 0.5), StepCheck: confirmResponse(true),
	}}
	if _, err := DefaultHybrid().Run(newHybridTask(), team(1), solo); err != nil {
		t.Errorf("single-member hybrid failed: %v", err)
	}
}

func TestForTaskSelectsScheme(t *testing.T) {
	cases := map[task.CollaborationScheme]task.CollaborationScheme{
		task.Sequential:   task.Sequential,
		task.Simultaneous: task.Simultaneous,
		task.Hybrid:       task.Hybrid,
		task.Individual:   task.Sequential, // individual is a 1-worker sequential pipeline
	}
	for scheme, wantName := range cases {
		tk := task.NewTask("t", "p", "x", scheme, task.Constraints{})
		got := ForTask(tk)
		if got.Name() != wantName {
			t.Errorf("ForTask(%s).Name() = %s, want %s", scheme, got.Name(), wantName)
		}
	}
}

func TestSharedDocument(t *testing.T) {
	d := &SharedDocument{}
	if d.Text() != "" {
		t.Error("new document should be empty")
	}
	d.AppendSection("interviews", "quote from a visitor")
	d.Append("second contribution")
	d.Append("first contribution")
	d.Append("   ") // ignored
	// The unnamed section renders before named sections, each in operation
	// order.
	want := "second contribution\n\nfirst contribution\n\n## interviews\n\nquote from a visitor"
	if got := d.Text(); got != want {
		t.Errorf("Text = %q, want %q", got, want)
	}
}

func TestSharedDocumentConcurrentAppend(t *testing.T) {
	d := &SharedDocument{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				d.Append(fmt.Sprintf("op %d-%d", i, j))
			}
		}(i)
	}
	wg.Wait()
	if n := strings.Count(d.Text(), "op "); n != 400 {
		t.Errorf("document holds %d contributions, want 400", n)
	}
}

func TestHelpers(t *testing.T) {
	if mergeContributions(map[worker.ID]string{"b": "two", "a": "one", "c": "  "}) != "one\n\ntwo" {
		t.Error("mergeContributions order/skip wrong")
	}
	if averageQuality(nil) != 0 || averageQuality([]float64{0.5, 1.0}) != 0.75 {
		t.Error("averageQuality wrong")
	}
	if !boolField(map[string]string{"x": "YES"}, "x") || boolField(map[string]string{"x": "nope"}, "x") {
		t.Error("boolField wrong")
	}
	if teamID([]worker.ID{"b", "a"}) != "team:a+b" {
		t.Error("teamID wrong")
	}
	o := Outcome{}
	if o.Quality() != 0 {
		t.Error("Quality of empty outcome should be 0")
	}
	if c, n := majorityConfirmed("garbage"); c || n != 0 {
		t.Error("majorityConfirmed on garbage should be false/0")
	}
	if c, n := majorityConfirmed("confirmed (3/4)"); !c || n != 3 {
		t.Error("majorityConfirmed parse failed")
	}
	if c, _ := majorityConfirmed("unconfirmed (1/4)"); c {
		t.Error("unconfirmed should parse as false")
	}
	tk := task.NewTask("t", "p", "desc only", task.Sequential, task.Constraints{})
	tk.Description = "fallback description"
	if primaryInput(tk) != "fallback description" {
		t.Error("primaryInput fallback wrong")
	}
	tk.Input["text"] = "explicit"
	if primaryInput(tk) != "explicit" {
		t.Error("primaryInput should prefer explicit input")
	}
}

// majorityConfirmed parses the verdict produced by a "majority" stage, e.g.
// "confirmed (3/4)"; it returns the verdict and the yes-vote count.
func majorityConfirmed(s string) (bool, int) {
	confirmed := strings.HasPrefix(s, "confirmed")
	open := strings.Index(s, "(")
	slash := strings.Index(s, "/")
	if open < 0 || slash < 0 || slash < open {
		return confirmed, 0
	}
	n, err := strconv.Atoi(s[open+1 : slash])
	if err != nil {
		return confirmed, 0
	}
	return confirmed, n
}
