package project

import (
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/task"
)

func validDescription() Description {
	return Description{
		Name:      "Subtitle translation",
		Requester: "mori",
		Summary:   "Translate video subtitles from English to Japanese",
		Scheme:    task.Sequential,
		Factors: DesiredFactors{
			Constraints: task.Constraints{
				RequiredSkill: "translation", MinSkill: 0.5, UpperCriticalMass: 3, MinTeamSize: 2,
			},
			RecruitmentWindow: 2 * time.Hour,
		},
		CyLogSource: `
rel sentence(sid: int, text: string).
open rel translated(sid: int, text: string) key(sid) asks "Translate".
rel need(sid: int).
need(S) :- sentence(S, _), translated(S, _).
`,
	}
}

func TestDescriptionValidate(t *testing.T) {
	d := validDescription()
	if err := d.Validate(); err != nil {
		t.Fatalf("valid description rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Description)
	}{
		{"empty name", func(d *Description) { d.Name = "  " }},
		{"bad scheme", func(d *Description) { d.Scheme = "teleportation" }},
		{"negative team size", func(d *Description) { d.Factors.Constraints.MinTeamSize = -1 }},
		{"skill out of range", func(d *Description) { d.Factors.Constraints.MinSkill = 1.5 }},
		{"affinity out of range", func(d *Description) { d.Factors.Constraints.MinPairAffinity = -0.1 }},
		{"negative budget", func(d *Description) { d.Factors.Constraints.CostBudget = -1 }},
		{"negative window", func(d *Description) { d.Factors.RecruitmentWindow = -time.Hour }},
		{"cylog parse error", func(d *Description) { d.CyLogSource = "rel broken(" }},
		{"cylog analysis error", func(d *Description) { d.CyLogSource = "rel a(x: int). b(X) :- a(X)." }},
	}
	for _, c := range cases {
		d := validDescription()
		c.mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
	// Empty CyLog source is allowed (template-driven projects).
	d = validDescription()
	d.CyLogSource = ""
	if err := d.Validate(); err != nil {
		t.Errorf("empty CyLog should be allowed: %v", err)
	}
}

func TestRegistryRegisterAndGet(t *testing.T) {
	r := NewRegistry()
	now := time.Date(2016, 9, 5, 10, 0, 0, 0, time.UTC)
	r.SetClock(func() time.Time { return now })

	a, err := r.Register(validDescription())
	if err != nil {
		t.Fatal(err)
	}
	if a.Description.ID == "" || a.Status != StatusActive || !a.RegisteredAt.Equal(now) {
		t.Errorf("admin = %+v", a)
	}
	if a.Description.Factors.Constraints.MinTeamSize != 2 {
		t.Error("constraints should be normalized and preserved")
	}
	got, ok := r.Get(a.Description.ID)
	if !ok || got.Description.Name != "Subtitle translation" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	// Returned record is a copy.
	got.Status = StatusPaused
	again, _ := r.Get(a.Description.ID)
	if again.Status != StatusActive {
		t.Error("Get should return a copy")
	}
	if r.Count() != 1 {
		t.Errorf("Count = %d", r.Count())
	}
	// Invalid description is rejected.
	bad := validDescription()
	bad.Name = ""
	if _, err := r.Register(bad); err == nil {
		t.Error("invalid description should be rejected")
	}
	// Duplicate explicit id is rejected.
	dup := validDescription()
	dup.ID = a.Description.ID
	if _, err := r.Register(dup); err == nil {
		t.Error("duplicate id should be rejected")
	}
	// A second project gets a different generated id.
	b, err := r.Register(validDescription())
	if err != nil || b.Description.ID == a.Description.ID {
		t.Errorf("second project id = %v, err=%v", b.Description.ID, err)
	}
	all := r.All()
	if len(all) != 2 || all[0].Description.ID > all[1].Description.ID {
		t.Errorf("All = %v", all)
	}
}

func TestRegistryDefaultScheme(t *testing.T) {
	r := NewRegistry()
	d := validDescription()
	d.Scheme = ""
	a, err := r.Register(d)
	if err != nil {
		t.Fatal(err)
	}
	if a.Description.Scheme != task.Sequential {
		t.Errorf("default scheme = %s", a.Description.Scheme)
	}
}

func TestRegistryStatusAndFactors(t *testing.T) {
	r := NewRegistry()
	a, _ := r.Register(validDescription())
	id := a.Description.ID

	if err := r.SetStatus(id, StatusPaused); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get(id)
	if got.Status != StatusPaused {
		t.Errorf("status = %s", got.Status)
	}
	if err := r.SetStatus("zzz", StatusPaused); !errors.Is(err, ErrUnknownProject) {
		t.Errorf("unknown project: %v", err)
	}

	updated, err := r.UpdateFactors(id, DesiredFactors{
		Constraints:       task.Constraints{UpperCriticalMass: 5, MinTeamSize: 3},
		RecruitmentWindow: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if updated.Description.Factors.Constraints.UpperCriticalMass != 5 {
		t.Error("UpdateFactors did not apply")
	}
	if _, err := r.UpdateFactors(id, DesiredFactors{Constraints: task.Constraints{MinSkill: 3}}); err == nil {
		t.Error("invalid factors should be rejected")
	}
	if _, err := r.UpdateFactors("zzz", DesiredFactors{}); !errors.Is(err, ErrUnknownProject) {
		t.Errorf("unknown project: %v", err)
	}
}

func TestRegistryNotices(t *testing.T) {
	r := NewRegistry()
	a, _ := r.Register(validDescription())
	id := a.Description.ID
	if err := r.Notify(id, "action-required", "No feasible team; please relax the constraints"); err != nil {
		t.Fatal(err)
	}
	notices := r.Notices(id)
	if len(notices) != 1 || notices[0].Level != "action-required" || !strings.Contains(notices[0].Message, "relax") {
		t.Errorf("notices = %v", notices)
	}
	if err := r.Notify("zzz", "info", "x"); !errors.Is(err, ErrUnknownProject) {
		t.Errorf("unknown project: %v", err)
	}
	if r.Notices("zzz") != nil {
		t.Error("unknown project notices should be nil")
	}
	// Get returns a copy of notices.
	got, _ := r.Get(id)
	got.Notices[0].Message = "tampered"
	if r.Notices(id)[0].Message == "tampered" {
		t.Error("notices should be copied")
	}
}

func TestAdminTaskConstraints(t *testing.T) {
	r := NewRegistry()
	a, _ := r.Register(validDescription())
	now := time.Date(2016, 9, 5, 10, 0, 0, 0, time.UTC)
	c := a.TaskConstraints(now)
	if !c.RecruitmentDeadline.Equal(now.Add(2 * time.Hour)) {
		t.Errorf("deadline = %v", c.RecruitmentDeadline)
	}
	if c.UpperCriticalMass != 3 || c.MinTeamSize != 2 {
		t.Errorf("constraints = %+v", c)
	}
	// No window → no deadline.
	d := validDescription()
	d.Factors.RecruitmentWindow = 0
	b, _ := r.Register(d)
	if !b.TaskConstraints(now).RecruitmentDeadline.IsZero() {
		t.Error("zero window should produce no deadline")
	}
}
