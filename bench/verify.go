package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/platform"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/wal"
)

// fingerprint renders an engine's observable state: the sorted facts of
// every declared relation, then the sorted pending request ids.
func fingerprint(e *cylog.Engine) string {
	var b strings.Builder
	for _, d := range e.Analysis().Program.Declarations {
		fmt.Fprintf(&b, "relation %s\n", d.Name)
		for _, t := range e.Facts(d.Name) {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
	}
	b.WriteString("pending\n")
	for _, r := range e.PendingRequests() {
		b.WriteString(r.ID)
		b.WriteByte('\n')
	}
	return b.String()
}

// referenceCheck rebuilds the outcome from scratch — a fresh engine given
// every accepted seed fact and every accepted answer as a whole fact, run
// once — and requires the served engine to match it byte for byte.
func referenceCheck(prog *cylog.Program, seeded, answered []fact, served *cylog.Engine) error {
	ref, err := cylog.NewEngine(prog)
	if err != nil {
		return err
	}
	for _, f := range seeded {
		if err := ref.AddFact(f.rel, f.vals...); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	for _, f := range answered {
		if err := ref.AnswerFact(f.rel, f.vals...); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	if _, err := ref.Run(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return sameState("served engine", fingerprint(served), "from-scratch reference", fingerprint(ref))
}

// recoverCheck recovers the project from the run's WAL into a fresh
// platform, timing RecoverProject, and requires the recovered engine to
// match the live one byte for byte.
func recoverCheck(w workload, walDir, dir string, live *cylog.Engine) (time.Duration, error) {
	p := platform.New()
	p.SetStorage(platform.StorageOptions{Backend: "disk", Dir: filepath.Join(dir, "recovered")})
	if _, err := p.RegisterProject(project.Description{ID: projectID, Name: w.name, CyLogSource: w.program}); err != nil {
		return 0, err
	}
	log, err := wal.Open(walDir, wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = p.RecoverProject(projectID, log, snapshotEvery)
	took := time.Since(start)
	if err != nil {
		log.Close()
		return took, fmt.Errorf("recovering: %w", err)
	}
	err = sameState("live engine", fingerprint(live), "recovered engine", fingerprint(p.Engine(projectID)))
	if cerr := log.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("closing recovered WAL: %w", cerr)
	}
	return took, err
}

// sameState reports the first line where two fingerprints differ.
func sameState(gotName, got, wantName, want string) error {
	if got == want {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return fmt.Errorf("%s differs from %s at line %d: %q vs %q", gotName, wantName, i+1, g, w)
		}
	}
	return fmt.Errorf("%s differs from %s", gotName, wantName)
}
