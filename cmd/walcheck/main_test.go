package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// TestScenarioDigestAcrossWorkersAndReopen is the in-process half of the
// crash-replay differential, without the kill. A scenario's fingerprint must
// not depend on how many workers evaluate its rounds, and reopening a
// finished scenario's log must recover and resume to the same fingerprint.
// Both storage backends and both programs (plain approvals and content-fuzz
// labels) are covered; every run also passes the from-scratch reference
// check inside scenario.run.
func TestScenarioDigestAcrossWorkersAndReopen(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		for _, content := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/content=%v", backend, content), func(t *testing.T) {
				root := t.TempDir()
				run := func(workers int, dir string) (string, int) {
					t.Helper()
					t.Setenv("CYLOG_PARALLELISM", strconv.Itoa(workers))
					s := scenario{dir: filepath.Join(root, dir), seed: 3, edges: 60,
						policy: wal.SyncOff, snapEvery: 2, content: content, salt: 17, backend: backend}
					digest, writes, err := s.run()
					if err != nil {
						t.Fatalf("workers=%d dir=%s: %v", workers, dir, err)
					}
					return digest, writes
				}
				one, writes := run(1, "one")
				if writes == 0 {
					t.Fatal("the scenario wrote nothing to its log")
				}
				pool, _ := run(4, "pool")
				if one != pool {
					t.Errorf("one worker digest %s, four workers %s", one[:12], pool[:12])
				}
				// Reopen "pool": recover from its log and snapshots, then
				// resume the same scenario to quiescence.
				if again, _ := run(4, "pool"); again != pool {
					t.Errorf("reopened digest %s, uninterrupted %s", again[:12], pool[:12])
				}
			})
		}
	}
}
