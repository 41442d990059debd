package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload at smoke sizes, untraced and traced, and
// requires the correctness check to pass, no operation to fail, and every
// listed metric to be reported. It asserts nothing about timings.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, window: 500 * time.Millisecond, traced: true, smoke: true, workDir: dir, spans: filepath.Join(dir, "spans.jsonl")}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.checkErr != nil {
				t.Fatal(res.checkErr)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%d of %d operations failed", res.failed, res.attempted)
			}
			reported := map[string]bool{}
			for _, m := range res.metrics {
				reported[m.name] = true
			}
			for _, m := range perLayer {
				if !reported[m.name] {
					t.Errorf("per-layer metric %s not reported", m.name)
				}
			}
		})
	}
}

func TestSummaryLineKeys(t *testing.T) {
	res := result{w: workloads[0], attempted: 3, metrics: []metric{count("setup_s", 0.5, "s", 3)}}
	line, correct := summary([]result{res}, false)
	if !correct {
		t.Fatal("a result without a check error reported incorrect")
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("summary keys: %s", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(endToEnd) || ms["setup_s"]["value"] != 0.5 || ms["setup_s"]["unit"] != "s" {
		t.Fatalf("summary metrics: %s", got["metrics"])
	}
}

func TestRefusesCylogEnvironment(t *testing.T) {
	t.Setenv("CYLOG_PARALLELISM", "1")
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke"}, &out, &errOut); code == 0 {
		t.Fatalf("ran with CYLOG_PARALLELISM set: %s", out.String())
	}
}
