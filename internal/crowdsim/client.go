package crowdsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/crowd4u/crowd4u-go/internal/api/wire"
	"github.com/crowd4u/crowd4u-go/internal/cylog"
	"github.com/crowd4u/crowd4u-go/internal/relstore"
)

// ServiceClient is the simulated crowd's HTTP mode: the same worker
// behaviour as the in-process simulator, but driven through the service
// layer (internal/api, schemas in internal/api/wire) the way live workers hit crowd4u.org — task feed over
// REST, answers through the ingress queue, fixpoint completion observed on
// the WebSocket event stream. cmd/loadsim composes thousands of these into
// a closed-loop load harness.
type ServiceClient struct {
	base    string
	project string
	httpc   *http.Client
}

// NewServiceClient targets one project of a service at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewServiceClient(baseURL, projectID string) *ServiceClient {
	return &ServiceClient{
		base:    strings.TrimRight(baseURL, "/"),
		project: projectID,
		httpc:   &http.Client{Timeout: 30 * time.Second},
	}
}

// ServiceError is a non-2xx API response: the mapped status, the machine
// code from the error envelope, and — for 429 backpressure responses — the
// server's retry hint.
type ServiceError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration
}

func (e *ServiceError) Error() string {
	return fmt.Sprintf("crowdsim: service responded %d (%s): %s", e.Status, e.Code, e.Message)
}

// Overloaded reports whether the service pushed back with 429; callers
// should wait RetryAfter and resubmit.
func (e *ServiceError) Overloaded() bool { return e.Status == http.StatusTooManyRequests }

// CreateProject registers a project and returns its status view.
func (c *ServiceClient) CreateProject(req wire.CreateProjectRequest) (wire.ProjectStatus, error) {
	var out wire.ProjectStatus
	err := c.do("POST", "/api/v1/projects", req, &out)
	return out, err
}

// Tasks fetches one page of the open-request feed. Workers divide the feed
// between themselves by offset.
func (c *ServiceClient) Tasks(offset, limit int) (wire.TaskFeed, error) {
	var out wire.TaskFeed
	path := fmt.Sprintf("%s?offset=%d&limit=%d", c.projectPath("/tasks"), offset, limit)
	err := c.do("GET", path, nil, &out)
	return out, err
}

// SubmitAnswer stages one answer through the ingress queue. The returned
// round number resolves against "fixpoint" events on the event stream: the
// answer is derived once a fixpoint with round >= Round is observed. A 429
// comes back as a *ServiceError with Overloaded() true and RetryAfter set.
func (c *ServiceClient) SubmitAnswer(requestID string, values map[string]any) (wire.AnswerResponse, error) {
	var out wire.AnswerResponse
	err := c.do("POST", c.projectPath("/answers"), wire.AnswerRequest{RequestID: requestID, Values: values}, &out)
	return out, err
}

// AddFact ingests one base fact ahead of the next round commit.
func (c *ServiceClient) AddFact(relation string, values ...any) error {
	return c.do("POST", c.projectPath("/facts"), wire.FactRequest{Relation: relation, Values: values}, nil)
}

// Fixpoint forces a round commit and reports it.
func (c *ServiceClient) Fixpoint() (wire.FixpointResponse, error) {
	var out wire.FixpointResponse
	err := c.do("POST", c.projectPath("/fixpoint"), nil, &out)
	return out, err
}

// Events subscribes to the project's WebSocket event stream.
func (c *ServiceClient) Events() (*wire.EventStream, error) {
	return wire.DialEvents(c.base, c.project)
}

func (c *ServiceClient) projectPath(suffix string) string {
	return "/api/v1/projects/" + url.PathEscape(c.project) + suffix
}

func (c *ServiceClient) do(method, path string, body, out any) error {
	var payload io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, c.base+path, payload)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		se := &ServiceError{Status: resp.StatusCode}
		var eb struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &eb) == nil {
			se.Code, se.Message = eb.Code, eb.Error
		}
		if ms := resp.Header.Get("X-Retry-After-Ms"); ms != "" {
			if n, err := strconv.ParseInt(ms, 10, 64); err == nil {
				se.RetryAfter = time.Duration(n) * time.Millisecond
			}
		} else if s := resp.Header.Get("Retry-After"); s != "" {
			if n, err := strconv.Atoi(s); err == nil {
				se.RetryAfter = time.Duration(n) * time.Second
			}
		}
		return se
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("crowdsim: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// AnswerTaskView synthesizes an answer for a task fetched over the REST
// feed, reusing the same column-name heuristics as the in-process oracle so
// HTTP-mode workers behave identically to direct-engine ones.
func (c *Crowd) AnswerTaskView(tv wire.TaskView) (map[string]any, bool) {
	req := cylog.OpenRequest{
		ID:          tv.ID,
		Relation:    tv.Relation,
		Prompt:      tv.Prompt,
		Scheme:      tv.Scheme,
		OpenColumns: tv.OpenColumns,
	}
	cols := make([]string, 0, len(tv.Key))
	for k := range tv.Key {
		cols = append(cols, k)
	}
	sort.Strings(cols)
	for _, k := range cols {
		req.KeyColumns = append(req.KeyColumns, k)
		req.KeyValues = append(req.KeyValues, relstore.FromGo(tv.Key[k]))
	}
	return c.AnswerOpenRequest(req)
}
