package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api/wire"
)

func TestOpenScheduleReproducesFromSeed(t *testing.T) {
	const window = 4 * time.Second
	a := openSchedule(7, 50, window, 2)
	if !reflect.DeepEqual(a, openSchedule(7, 50, window, 2)) {
		t.Fatal("the same seed drew two different schedules")
	}
	if reflect.DeepEqual(a, openSchedule(8, 50, window, 2)) {
		t.Fatal("different seeds drew the same schedule")
	}
	answers, facts := 0, 0
	for i, o := range a {
		if o.due < 0 || o.due >= window || (i > 0 && o.due < a[i-1].due) {
			t.Fatalf("op %d due at %v: outside the window or out of order", i, o.due)
		}
		if o.fact {
			facts++
		} else {
			answers++
			if o.pages.offset < 0 || o.pages.offset >= 1 || o.pages.pick < 0 || o.pages.pick >= pageSize {
				t.Fatalf("op %d has page choice %+v", i, o.pages)
			}
		}
	}
	if answers != 200 || facts != 100 {
		t.Fatalf("schedule holds %d answers and %d facts; want 200 and 100", answers, facts)
	}
}

func TestWorkerStreamsReproduceFromSeed(t *testing.T) {
	draw := func(seed int64, sender int) []pageChoice {
		rng := workerRNG(seed, sender)
		out := make([]pageChoice, 50)
		for i := range out {
			out[i] = drawPage(rng)
		}
		return out
	}
	if !reflect.DeepEqual(draw(3, 0), draw(3, 0)) {
		t.Fatal("the same seed and sender drew two different streams")
	}
	if reflect.DeepEqual(draw(3, 0), draw(3, 1)) || reflect.DeepEqual(draw(3, 0), draw(4, 0)) {
		t.Fatal("different senders or seeds drew the same stream")
	}
}

func TestAnswerValuesDependOnSeedAndRequestOnly(t *testing.T) {
	check := wire.TaskView{ID: "checked|12", Relation: "checked", OpenColumns: []string{"ok"}}
	tr := wire.TaskView{ID: "translated|12", Relation: "translated", OpenColumns: []string{"text"}}
	for _, tv := range []wire.TaskView{check, tr} {
		if !reflect.DeepEqual(answerValues(5, tv), answerValues(5, tv)) {
			t.Fatalf("answer to %s is not reproducible", tv.ID)
		}
	}
	if _, ok := answerValues(5, check)["ok"].(bool); !ok {
		t.Fatal("ok column answered with a non-boolean")
	}
	if _, ok := answerValues(5, tr)["text"].(string); !ok {
		t.Fatal("text column answered with a non-string")
	}
	differ := 0
	for i := 0; i < 64; i++ {
		tv := wire.TaskView{ID: "label|" + string(rune('a'+i%26)) + string(rune('a'+i/26)), OpenColumns: []string{"ok"}}
		if answerValues(1, tv)["ok"] != answerValues(2, tv)["ok"] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("answers do not depend on the seed")
	}
}
