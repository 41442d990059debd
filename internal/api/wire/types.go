// Package wire defines the service layer's HTTP wire protocol: the JSON
// request/response types of the REST surface, the WebSocket event message,
// and a minimal RFC 6455 codec with a client-side event-stream dialer. It is
// a leaf package — importable by clients (internal/crowdsim's service
// client, cmd/loadsim) without pulling in the server or the platform, and by
// the server (internal/api) without creating cycles.
package wire

import "time"

// EventMessage is one platform event on the WebSocket stream. Round is
// present (non-zero) on round-scoped kinds such as "fixpoint" and
// "cylog-answer-skipped"; subscribers resolve an answer staged into round N
// as derived once they observe a "fixpoint" event with round >= N.
type EventMessage struct {
	At      time.Time `json:"at"`
	Kind    string    `json:"kind"`
	Project string    `json:"project,omitempty"`
	Task    string    `json:"task,omitempty"`
	Round   uint64    `json:"round,omitempty"`
	Message string    `json:"message,omitempty"`
}

// ErrorBody is the JSON error envelope: a machine code plus a human message.
type ErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// TaskView is one open request on the task feed.
type TaskView struct {
	ID          string         `json:"id"`
	Relation    string         `json:"relation"`
	Prompt      string         `json:"prompt,omitempty"`
	Scheme      string         `json:"scheme,omitempty"`
	Key         map[string]any `json:"key"`
	OpenColumns []string       `json:"open_columns"`
}

// TaskFeed is the paginated response of GET .../tasks.
type TaskFeed struct {
	Tasks []TaskView `json:"tasks"`
	// Total is the full pending count; Offset/Limit echo the request so
	// workers can divide the feed between them.
	Total  int `json:"total"`
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
}

// AnswerRequest is the body of POST .../answers.
type AnswerRequest struct {
	RequestID string         `json:"request_id"`
	Values    map[string]any `json:"values"`
}

// AnswerResponse acknowledges a staged answer.
type AnswerResponse struct {
	// Round is the sequence number of the round the answer joined; the
	// answer is durable and derived once a "fixpoint" event with
	// round >= Round is observed.
	Round uint64 `json:"round"`
	// Queued is the staging queue depth after this answer.
	Queued int `json:"queued"`
}

// FactRequest is the body of POST .../facts: a base (closed-relation) fact
// ingested ahead of the next round commit.
type FactRequest struct {
	Relation string `json:"relation"`
	Values   []any  `json:"values"`
}

// FixpointResponse reports a round commit forced via POST .../fixpoint.
type FixpointResponse struct {
	Round      uint64 `json:"round"`
	Answers    int    `json:"answers"`
	Skipped    int    `json:"skipped"`
	Pending    int    `json:"pending"`
	DurationNS int64  `json:"duration_ns"`
}

// QueueStatus describes a project's ingress queue.
type QueueStatus struct {
	Staged    int    `json:"staged"`
	Capacity  int    `json:"capacity"`
	NextRound uint64 `json:"next_round"`
}

// StatsView is the headline subset of the engine's stats exposed over the
// API.
type StatsView struct {
	Iterations      int `json:"iterations"`
	RuleEvaluations int `json:"rule_evaluations"`
	DerivedFacts    int `json:"derived_facts"`
	OpenRequests    int `json:"open_requests"`
}

// WALStatus describes a project's attached write-ahead log.
type WALStatus struct {
	Appends   int    `json:"appends"`
	Snapshots int    `json:"snapshots"`
	LastSeq   uint64 `json:"last_seq"`
}

// StorageStatus describes the relstore backend behind a project's engine:
// which backend it is and, for the disk backend, how the residency budget is
// being spent (resident vs paged relations, fault/eviction counters).
type StorageStatus struct {
	Backend           string `json:"backend"`
	Relations         int    `json:"relations"`
	ResidentRelations int    `json:"resident_relations"`
	ResidentBytes     int64  `json:"resident_bytes,omitempty"`
	BudgetBytes       int64  `json:"budget_bytes,omitempty"`
	Faults            int64  `json:"faults,omitempty"`
	Evictions         int64  `json:"evictions,omitempty"`
	SegmentWrites     int64  `json:"segment_writes,omitempty"`
	SegmentBytes      int64  `json:"segment_bytes,omitempty"`
}

// ProjectStatus is the response of GET /api/v1/projects/{id} (and, without
// Queue/Stats/WAL detail, the element type of the project list).
type ProjectStatus struct {
	ID              string         `json:"id"`
	Name            string         `json:"name"`
	Status          string         `json:"status"`
	Requester       string         `json:"requester,omitempty"`
	Summary         string         `json:"summary,omitempty"`
	HasEngine       bool           `json:"has_engine"`
	PendingRequests int            `json:"pending_requests"`
	Queue           *QueueStatus   `json:"queue,omitempty"`
	Stats           *StatsView     `json:"stats,omitempty"`
	WAL             *WALStatus     `json:"wal,omitempty"`
	Storage         *StorageStatus `json:"storage,omitempty"`
}

// CreateProjectRequest is the body of POST /api/v1/projects.
type CreateProjectRequest struct {
	ID        string `json:"id,omitempty"`
	Name      string `json:"name"`
	Requester string `json:"requester,omitempty"`
	Summary   string `json:"summary,omitempty"`
	// CyLog is the project's declarative description; required for projects
	// that serve a task feed (an engine is built from it at registration).
	CyLog string `json:"cylog,omitempty"`
	// Backend overrides the platform-wide relstore backend for this project:
	// "" (platform default), "memory" or "disk".
	Backend string `json:"backend,omitempty"`
}
