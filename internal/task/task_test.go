package task

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCollaborationSchemeValid(t *testing.T) {
	for _, s := range []CollaborationScheme{Sequential, Simultaneous, Hybrid, Individual} {
		if !s.Valid() {
			t.Errorf("%s should be valid", s)
		}
	}
	if CollaborationScheme("bogus").Valid() {
		t.Error("bogus scheme should be invalid")
	}
}

func TestStateStringAndTerminal(t *testing.T) {
	cases := map[State]string{
		StateOpen: "open", StateAssigned: "assigned", StateInProgress: "in_progress",
		StateCompleted: "completed", StateExpired: "expired", StateCancelled: "cancelled",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if State(42).String() == "" {
		t.Error("unknown state should still render")
	}
	if StateOpen.Terminal() || StateInProgress.Terminal() {
		t.Error("open/in_progress are not terminal")
	}
	if !StateCompleted.Terminal() || !StateExpired.Terminal() || !StateCancelled.Terminal() {
		t.Error("completed/expired/cancelled are terminal")
	}
}

func TestConstraintsNormalize(t *testing.T) {
	c := Constraints{}.Normalize()
	if c.UpperCriticalMass != DefaultCriticalMass || c.MinTeamSize != 1 || c.InterestThreshold != 1 {
		t.Errorf("Normalize() = %+v", c)
	}
	c = Constraints{MinTeamSize: 10, UpperCriticalMass: 4}.Normalize()
	if c.MinTeamSize != 4 {
		t.Errorf("MinTeamSize should be capped at critical mass, got %d", c.MinTeamSize)
	}
	c = Constraints{MinTeamSize: 3, InterestThreshold: 1}.Normalize()
	if c.InterestThreshold != 3 {
		t.Errorf("InterestThreshold should be at least MinTeamSize, got %d", c.InterestThreshold)
	}
}

func TestConstraintsNormalizeProperty(t *testing.T) {
	f := func(min, ucm, it int8) bool {
		c := Constraints{MinTeamSize: int(min), UpperCriticalMass: int(ucm), InterestThreshold: int(it)}.Normalize()
		return c.UpperCriticalMass >= 1 && c.MinTeamSize >= 1 &&
			c.MinTeamSize <= c.UpperCriticalMass && c.InterestThreshold >= c.MinTeamSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTaskLifecycle(t *testing.T) {
	tk := NewTask("t1", "p1", "translate", Sequential, Constraints{})
	if tk.State() != StateOpen {
		t.Fatalf("initial state = %v", tk.State())
	}
	if err := tk.SetState(StateAssigned); err != nil {
		t.Fatal(err)
	}
	if err := tk.SetState(StateInProgress); err != nil {
		t.Fatal(err)
	}
	if err := tk.Complete(&Result{SubmittedBy: "w1", Fields: map[string]string{"text": "hola"}}); err != nil {
		t.Fatal(err)
	}
	if tk.State() != StateCompleted {
		t.Errorf("state = %v", tk.State())
	}
	r := tk.Result()
	if r == nil || r.TaskID != "t1" || r.SubmittedAt.IsZero() {
		t.Errorf("result = %+v", r)
	}
	if err := tk.SetState(StateOpen); err == nil {
		t.Error("leaving a terminal state should fail")
	}
	if err := tk.Complete(&Result{}); err == nil {
		t.Error("completing twice should fail")
	}
	if err := tk.SetState(StateCompleted); err != nil {
		t.Errorf("no-op transition within terminal state should be allowed: %v", err)
	}
}

func TestTaskCompleteNilResult(t *testing.T) {
	tk := NewTask("t1", "p1", "x", Individual, Constraints{})
	if err := tk.Complete(nil); err == nil {
		t.Error("Complete(nil) should fail")
	}
}

func TestTaskExpired(t *testing.T) {
	now := time.Now()
	tk := NewTask("t1", "p1", "x", Individual, Constraints{RecruitmentDeadline: now.Add(time.Hour)})
	if tk.Expired(now) {
		t.Error("should not be expired before deadline")
	}
	if !tk.Expired(now.Add(2 * time.Hour)) {
		t.Error("should be expired after deadline")
	}
	noDeadline := NewTask("t2", "p1", "x", Individual, Constraints{})
	if noDeadline.Expired(now.Add(1000 * time.Hour)) {
		t.Error("no deadline means never expired")
	}
}

func TestTaskCloneIndependence(t *testing.T) {
	tk := NewTask("t1", "p1", "x", Sequential, Constraints{})
	tk.Input["sentence"] = "hello"
	tk.Form = TextForm("Translate")
	c := tk.Clone()
	c.Input["sentence"] = "bye"
	c.Form.Fields[0].Label = "changed"
	if tk.Input["sentence"] != "hello" || tk.Form.Fields[0].Label != "Translate" {
		t.Error("Clone should not share input map or form")
	}
	if !strings.Contains(tk.String(), "t1") {
		t.Errorf("String() = %q", tk.String())
	}
}

func TestPoolRegisterGetRemove(t *testing.T) {
	p := NewPool()
	tk := NewTask(p.NextID("t"), "p1", "x", Individual, Constraints{})
	if err := p.Register(tk); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(tk); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := p.Register(nil); err == nil {
		t.Error("nil task should fail")
	}
	if err := p.Register(&Task{}); err == nil {
		t.Error("empty id should fail")
	}
	got, ok := p.Get(tk.ID)
	if !ok || got != tk {
		t.Error("Get should return the registered task")
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d", p.Len())
	}
	if !p.Remove(tk.ID) || p.Remove(tk.ID) {
		t.Error("Remove misbehaves")
	}
}

func TestPoolNextIDUnique(t *testing.T) {
	p := NewPool()
	seen := make(map[ID]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				id := p.NextID("t")
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate id %s", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestPoolQueries(t *testing.T) {
	p := NewPool()
	parent := NewTask("parent", "p1", "doc", Simultaneous, Constraints{})
	p.Register(parent)
	for i := 0; i < 3; i++ {
		c := NewTask(ID(fmt.Sprintf("child-%d", 2-i)), "p1", "part", Simultaneous, Constraints{})
		p.Register(c)
	}
	other := NewTask("other", "p2", "x", Individual, Constraints{})
	other.SetState(StateCompleted)
	p.Register(other)

	if got := p.ByProject("p1"); len(got) != 4 {
		t.Errorf("ByProject(p1) = %d tasks", len(got))
	}
	if got := p.InState(StateOpen); len(got) != 4 {
		t.Errorf("InState(open) = %d", len(got))
	}
	if got := p.InState(StateCompleted); len(got) != 1 {
		t.Errorf("InState(completed) = %d", len(got))
	}
	counts := p.Counts()
	if counts["open"] != 4 || counts["completed"] != 1 {
		t.Errorf("Counts = %v", counts)
	}
	all := p.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID > all[i].ID {
			t.Error("All() not sorted by id")
		}
	}
}

func TestPoolExpireOverdue(t *testing.T) {
	p := NewPool()
	now := time.Now()
	overdue := NewTask("a", "p", "x", Individual, Constraints{RecruitmentDeadline: now.Add(-time.Hour)})
	fresh := NewTask("b", "p", "x", Individual, Constraints{RecruitmentDeadline: now.Add(time.Hour)})
	inProgress := NewTask("c", "p", "x", Individual, Constraints{RecruitmentDeadline: now.Add(-time.Hour)})
	inProgress.SetState(StateInProgress)
	done := NewTask("d", "p", "x", Individual, Constraints{RecruitmentDeadline: now.Add(-time.Hour)})
	done.SetState(StateCompleted)
	for _, tk := range []*Task{overdue, fresh, inProgress, done} {
		p.Register(tk)
	}
	expired := p.ExpireOverdue(now)
	if len(expired) != 1 || expired[0].ID != "a" {
		t.Errorf("ExpireOverdue = %v", expired)
	}
	if overdue.State() != StateExpired {
		t.Errorf("overdue state = %v", overdue.State())
	}
	if inProgress.State() != StateInProgress || done.State() != StateCompleted || fresh.State() != StateOpen {
		t.Error("other tasks should be untouched")
	}
}

func TestFormValidate(t *testing.T) {
	f := Form{Fields: []Field{
		{Name: "text", Kind: FieldTextArea, Required: true},
		{Name: "count", Kind: FieldNumber},
		{Name: "lang", Kind: FieldSelect, Options: []string{"en", "ja"}},
		{Name: "ok", Kind: FieldCheckbox},
		{Name: "link", Kind: FieldURL},
	}}
	good := map[string]string{"text": "hello", "count": "3", "lang": "en", "ok": "true", "link": "https://example.org"}
	if err := f.Validate(good); err != nil {
		t.Errorf("Validate(good) = %v", err)
	}
	cases := []map[string]string{
		{"count": "3"},                    // missing required
		{"text": "   "},                   // blank required
		{"text": "x", "count": "NaN-ish"}, // bad number
		{"text": "x", "lang": "fr"},       // bad option
		{"text": "x", "ok": "maybe"},      // bad bool
		{"text": "x", "link": "ftp://x"},  // bad url
		{"text": "x", "unknown": "y"},     // unknown field
	}
	for i, c := range cases {
		if err := f.Validate(c); err == nil {
			t.Errorf("case %d should fail: %v", i, c)
		}
	}
	// Optional empty fields are fine.
	if err := f.Validate(map[string]string{"text": "x", "count": ""}); err != nil {
		t.Errorf("empty optional field should pass: %v", err)
	}
}

func TestFormHelpers(t *testing.T) {
	tf := TextForm("Translate this")
	if len(tf.Fields) != 1 || tf.Fields[0].Name != "text" || !tf.Fields[0].Required {
		t.Errorf("TextForm = %+v", tf)
	}
	cf := ConfirmForm("Is this correct?")
	if _, ok := cf.Field("confirmed"); !ok {
		t.Error("ConfirmForm should have a confirmed field")
	}
	if _, ok := cf.Field("nope"); ok {
		t.Error("Field should report missing fields")
	}
	if err := cf.Validate(map[string]string{"confirmed": "yes"}); err != nil {
		t.Errorf("confirm yes should validate: %v", err)
	}
	if err := cf.Validate(map[string]string{"confirmed": "maybe"}); err == nil {
		t.Error("confirm maybe should fail")
	}
}

// TextForm builds a form with a single required textarea named "text"; the
// most common micro-task form (transcribe, translate, write a paragraph).
func TextForm(label string) Form {
	return Form{Fields: []Field{{Name: "text", Label: label, Kind: FieldTextArea, Required: true}}}
}
