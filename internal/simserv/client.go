package simserv

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Client is a thin typed client for the coordinator API; the worker,
// the CLI's submit/wait verbs and the tests all speak through it.
type Client struct {
	// Base is the coordinator base URL, e.g. "http://127.0.0.1:8990".
	Base string
}

// apiError is a non-2xx response decoded from the {"error": ...} body.
type apiError struct {
	Status     int
	RetryAfter string
	Msg        string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("simserv: HTTP %d: %s", e.Status, e.Msg)
}

// post sends req as JSON and decodes a 2xx body into resp (resp may be
// nil; a 204 decodes nothing). Non-2xx returns *apiError.
func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := http.Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	return decodeResp(r, resp)
}

func (c *Client) get(path string, resp any) error {
	r, err := http.Get(c.Base + path)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	return decodeResp(r, resp)
}

func decodeResp(r *http.Response, resp any) error {
	if r.StatusCode == http.StatusNoContent {
		return nil
	}
	if r.StatusCode < 200 || r.StatusCode > 299 {
		var e struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if json.Unmarshal(data, &e) != nil || e.Error == "" {
			e.Error = string(data)
		}
		return &apiError{Status: r.StatusCode, RetryAfter: r.Header.Get("Retry-After"), Msg: e.Error}
	}
	if resp == nil {
		return nil
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// IsStatus reports whether err is an API error with the given HTTP
// status (e.g. 409 for a fenced stale lease, 429 for backpressure).
func IsStatus(err error, status int) bool {
	e, ok := err.(*apiError)
	return ok && e.Status == status
}

// RetryAfter returns the Retry-After header of a 429/503 API error
// ("" otherwise).
func RetryAfter(err error) string {
	if e, ok := err.(*apiError); ok {
		return e.RetryAfter
	}
	return ""
}

// Submit enqueues a job.
func (c *Client) Submit(req SubmitRequest) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.post("/v1/jobs", req, &resp)
	return resp, err
}

// Claim asks for work; ok is false when the coordinator has none (or
// is draining).
func (c *Client) Claim(worker string) (ClaimResponse, bool, error) {
	var resp ClaimResponse
	if err := c.post("/v1/claim", ClaimRequest{Worker: worker}, &resp); err != nil {
		return ClaimResponse{}, false, err
	}
	// A 204 decodes nothing; every handed-out job has an ID.
	return resp, resp.JobID != "", nil
}

// Renew extends a lease and returns the coordinator's directive.
func (c *Client) Renew(jobID, worker string, token uint64) (string, error) {
	var resp RenewResponse
	if err := c.post("/v1/renew", RenewRequest{JobID: jobID, Worker: worker, Token: token}, &resp); err != nil {
		return "", err
	}
	return resp.Directive, nil
}

// Complete reports a finished run.
func (c *Client) Complete(req CompleteRequest) error {
	return c.post("/v1/complete", req, nil)
}

// Fail reports a failed attempt; retried is false when the job
// dead-lettered.
func (c *Client) Fail(req FailRequest) (bool, error) {
	var resp FailResponse
	err := c.post("/v1/fail", req, &resp)
	return resp.Retried, err
}

// Preempt hands a job back with a checkpoint.
func (c *Client) Preempt(req PreemptRequest) error {
	return c.post("/v1/preempt", req, nil)
}

// Job fetches one job's status.
func (c *Client) Job(id string) (JobStatus, error) {
	var st JobStatus
	err := c.get("/v1/jobs/"+id, &st)
	return st, err
}

// Jobs lists every job.
func (c *Client) Jobs() ([]JobStatus, error) {
	var out []JobStatus
	err := c.get("/v1/jobs", &out)
	return out, err
}

// Stats fetches the fabric counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.get("/v1/stats", &st)
	return st, err
}
