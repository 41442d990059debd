package platform

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/project"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// StorageOptions selects the relstore backend new project engines are built
// on. The zero value (backend "") means "memory" unless the CYLOG_BACKEND
// environment variable says otherwise — the same env-over-default pattern the
// engine uses for CYLOG_PARALLELISM, so the whole test matrix
// can be pushed onto the disk backend without touching call sites.
type StorageOptions struct {
	// Backend is "memory" or "disk" ("" = memory).
	Backend string
	// Dir is the root directory for disk-backed projects; each project gets
	// its own subdirectory. Empty = a fresh temporary directory per project.
	Dir string
	// BudgetBytes is the disk backend's residency budget
	// (0 = relstore.DefaultDiskBudgetBytes).
	BudgetBytes int64
}

// DefaultStorageFromEnv builds the platform's initial storage options from
// the environment: CYLOG_BACKEND (memory|disk), CYLOG_BACKEND_DIR and
// CYLOG_BACKEND_BUDGET (bytes).
func DefaultStorageFromEnv() StorageOptions {
	opts := StorageOptions{Backend: os.Getenv("CYLOG_BACKEND"), Dir: os.Getenv("CYLOG_BACKEND_DIR")}
	if v := os.Getenv("CYLOG_BACKEND_BUDGET"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			opts.BudgetBytes = n
		}
	}
	return opts
}

// SetStorage replaces the storage options used for engines of projects
// registered after the call. Existing engines keep their backends.
func (p *Platform) SetStorage(opts StorageOptions) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.storage = opts
}

// Storage returns the platform's current storage options.
func (p *Platform) Storage() StorageOptions {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.storage
}

// newDatabaseFor builds the relstore database for a project's engine,
// honoring the project-level backend override, then the platform options.
func (p *Platform) newDatabaseFor(id project.ID, override string) (*relstore.Database, error) {
	p.mu.Lock()
	opts := p.storage
	p.mu.Unlock()
	kind := opts.Backend
	if override != "" {
		kind = override
	}
	switch kind {
	case "", "memory":
		return relstore.NewDatabase(), nil
	case "disk":
		dir := opts.Dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "cylog-"+sanitizeID(id)+"-")
			if err != nil {
				return nil, fmt.Errorf("platform: disk backend for %s: %w", id, err)
			}
			dir = tmp
		} else {
			dir = filepath.Join(dir, sanitizeID(id))
		}
		b, err := relstore.NewDiskBackend(relstore.DiskOptions{Dir: dir, BudgetBytes: opts.BudgetBytes})
		if err != nil {
			return nil, fmt.Errorf("platform: disk backend for %s: %w", id, err)
		}
		return relstore.NewDatabaseWith(b), nil
	default:
		return nil, fmt.Errorf("platform: unknown storage backend %q (want memory or disk)", kind)
	}
}

// sanitizeID maps a project id onto a path-safe directory name.
func sanitizeID(id project.ID) string {
	out := make([]rune, 0, len(id))
	for _, r := range string(id) {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "project"
	}
	return string(out)
}

// BackendStats returns the relstore backend statistics of a project's engine
// (ok=false when the project has no engine).
func (p *Platform) BackendStats(id project.ID) (relstore.BackendStats, bool) {
	eng := p.Engine(id)
	if eng == nil {
		return relstore.BackendStats{}, false
	}
	return eng.Database().Backend().Stats(), true
}

// maintainBackend asks the engine's backend to enforce its resource policy —
// called after commit points so a disk-backed project pages out cold
// relations between rounds. Failures are recorded as events, not returned:
// durability is the WAL's job, residency is best-effort.
func (p *Platform) maintainBackend(id project.ID, eng *cylog.Engine) {
	if err := eng.Database().Backend().Maintain(); err != nil {
		p.record(Event{Kind: "backend-error", Project: id, Message: err.Error()})
	}
}
