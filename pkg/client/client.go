package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// Retry shapes the client's backoff policy. Attempts counts the total
// tries (1 = no retry); the delay before try n is Base*2^(n-1) capped
// at Max, with up to 50% random jitter subtracted so synchronized
// clients fan out.
type Retry struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

// DefaultRetry is the policy New installs: four tries over roughly a
// second of cumulative backoff.
var DefaultRetry = Retry{Attempts: 4, Base: 50 * time.Millisecond, Max: 2 * time.Second}

// delay returns the jittered backoff before retry attempt (1-based).
func (r Retry) delay(attempt int) time.Duration {
	d := r.Base << (attempt - 1)
	if d > r.Max || d <= 0 {
		d = r.Max
	}
	// Subtractive jitter keeps the bound: d/2 <= delay <= d.
	return d - time.Duration(rand.Int63n(int64(d)/2+1))
}

// Client is a typed, context-aware reusetoold v1 API client. It talks
// to a worker daemon or a cluster coordinator interchangeably — the
// coordinator serves the same surface.
//
// The zero value is not usable; construct with New. All methods are
// safe for concurrent use.
type Client struct {
	base  string
	hc    *http.Client
	retry Retry
	// PollInterval paces Wait's job polling (default 100ms).
	PollInterval time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (default http.DefaultClient).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry substitutes the backoff policy (default DefaultRetry).
func WithRetry(r Retry) Option { return func(c *Client) { c.retry = r } }

// New builds a client for the daemon at base (e.g. "http://127.0.0.1:8375").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:         strings.TrimRight(base, "/"),
		hc:           http.DefaultClient,
		retry:        DefaultRetry,
		PollInterval: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	if c.retry.Attempts <= 0 {
		c.retry.Attempts = 1
	}
	if c.retry.Base <= 0 {
		c.retry.Base = DefaultRetry.Base
	}
	if c.retry.Max < c.retry.Base {
		c.retry.Max = c.retry.Base
	}
	return c
}

// BaseURL reports the daemon address the client targets.
func (c *Client) BaseURL() string { return c.base }

// Analyze submits an analysis request. A cache hit returns a JobDone
// document immediately; otherwise the returned job is queued — poll it
// with Job or Wait. Temporary rejections (queue full, draining,
// coordinator upstream failures) are retried with jittered backoff.
func (c *Client) Analyze(ctx context.Context, req AnalyzeRequest) (*Job, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var job Job
	err = c.withRetry(ctx, retryTemporary, func() error {
		return c.do(ctx, http.MethodPost, "/v1/analyze", payload, &job)
	})
	if err != nil {
		return nil, fmt.Errorf("analyze at %s: %w", c.base, err)
	}
	return &job, nil
}

// Check runs the static reuse checker on a program and returns its
// diagnostics. Checks are synchronous — there is no job to poll — and
// temporary rejections (draining, coordinator upstream failures) are
// retried with jittered backoff.
func (c *Client) Check(ctx context.Context, req CheckRequest) (*CheckResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp CheckResponse
	err = c.withRetry(ctx, retryTemporary, func() error {
		return c.do(ctx, http.MethodPost, "/v1/check", payload, &resp)
	})
	if err != nil {
		return nil, fmt.Errorf("check at %s: %w", c.base, err)
	}
	return &resp, nil
}

// Fit submits a cross-input scaling-model fit. A model-cache hit
// returns a JobDone document immediately; otherwise the returned job
// covers the 3–5 training runs plus the fit — poll it with Job or
// Wait. The finished job's Key is the model's cache key, usable as
// PredictRequest.Model. Unsound training inputs (adaptive or R>1
// sampling) fail fast with an *Error carrying
// CodeUnsoundTrainingInput.
func (c *Client) Fit(ctx context.Context, req FitRequest) (*Job, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var job Job
	err = c.withRetry(ctx, retryTemporary, func() error {
		return c.do(ctx, http.MethodPost, "/v1/fit", payload, &job)
	})
	if err != nil {
		return nil, fmt.Errorf("fit at %s: %w", c.base, err)
	}
	return &job, nil
}

// Predict answers a what-if query from a fitted model, synchronously —
// no job is scheduled and no interpreter runs. A missing model returns
// an *Error with CodeNotFound: fit first.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (*PredictResponse, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp PredictResponse
	err = c.withRetry(ctx, retryTemporary, func() error {
		return c.do(ctx, http.MethodPost, "/v1/predict", payload, &resp)
	})
	if err != nil {
		return nil, fmt.Errorf("predict at %s: %w", c.base, err)
	}
	return &resp, nil
}

// Job fetches the current state of a job by ID.
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var job Job
	err := c.withRetry(ctx, retryTransport, func() error {
		return c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &job)
	})
	if err != nil {
		return nil, fmt.Errorf("job %s at %s: %w", id, c.base, err)
	}
	return &job, nil
}

// Jobs lists job summaries, newest last. A non-empty state filters to
// that lifecycle state.
func (c *Client) Jobs(ctx context.Context, state JobStatus) ([]Job, error) {
	path := "/v1/jobs"
	if state != "" {
		path += "?state=" + url.QueryEscape(string(state))
	}
	var list JobList
	err := c.withRetry(ctx, retryTransport, func() error {
		return c.do(ctx, http.MethodGet, path, nil, &list)
	})
	if err != nil {
		return nil, fmt.Errorf("list jobs at %s: %w", c.base, err)
	}
	return list.Jobs, nil
}

// Cancel requests cancellation of a queued or running job. Canceling a
// finished job returns an *Error with CodeConflict.
func (c *Client) Cancel(ctx context.Context, id string) (*Job, error) {
	var job Job
	// Never retried: a second DELETE after success reports a conflict.
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &job); err != nil {
		return nil, fmt.Errorf("cancel job %s at %s: %w", id, c.base, err)
	}
	return &job, nil
}

// Nodes lists the worker fleet of a cluster coordinator. Against a
// plain worker daemon it returns an *Error with CodeNotFound.
func (c *Client) Nodes(ctx context.Context) ([]Node, error) {
	var list NodeList
	err := c.withRetry(ctx, retryTransport, func() error {
		return c.do(ctx, http.MethodGet, "/v1/nodes", nil, &list)
	})
	if err != nil {
		return nil, fmt.Errorf("list nodes at %s: %w", c.base, err)
	}
	return list.Nodes, nil
}

// Health reports daemon readiness. It is never retried — probes want
// the first answer.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.do(ctx, http.MethodGet, "/v1/health", nil, &h); err != nil {
		return nil, fmt.Errorf("health of %s: %w", c.base, err)
	}
	return &h, nil
}

// Wait polls a job until it reaches a terminal state. If ctx expires
// first, the job is best-effort canceled server-side (the daemon should
// not keep working for a client that gave up) and ctx's error returned.
func (c *Client) Wait(ctx context.Context, id string) (*Job, error) {
	for {
		job, err := c.Job(ctx, id)
		if err != nil {
			if ctx.Err() != nil {
				c.detachedCancel(ctx, id)
				return nil, fmt.Errorf("waiting for job %s: %w", id, ctx.Err())
			}
			return nil, err
		}
		if job.Status.Terminal() {
			return job, nil
		}
		select {
		case <-ctx.Done():
			c.detachedCancel(ctx, id)
			return nil, fmt.Errorf("waiting for job %s: %w", id, ctx.Err())
		case <-time.After(c.PollInterval):
		}
	}
}

// detachedCancel cancels a job after the caller's context already
// died: it detaches from the cancellation while keeping ctx's values.
func (c *Client) detachedCancel(ctx context.Context, id string) {
	cancelCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 2*time.Second)
	defer cancel()
	_, _ = c.Cancel(cancelCtx, id)
}

// retryClass picks which failures withRetry retries.
type retryClass int

const (
	// retryTransport retries only transport errors (request never
	// reached a conclusive response).
	retryTransport retryClass = iota
	// retryTemporary also retries API errors that report Temporary().
	retryTemporary
)

func (c *Client) withRetry(ctx context.Context, class retryClass, f func() error) error {
	var last error
	for attempt := 1; ; attempt++ {
		err := f()
		if err == nil {
			return nil
		}
		last = err
		if ctx.Err() != nil || attempt >= c.retry.Attempts || !retryable(err, class) {
			return last
		}
		select {
		case <-ctx.Done():
			return last
		case <-time.After(c.retry.delay(attempt)):
		}
	}
}

func retryable(err error, class retryClass) bool {
	var apiErr *Error
	if errors.As(err, &apiErr) {
		return class == retryTemporary && apiErr.Temporary()
	}
	// No *Error means the transport failed before a response decoded.
	return true
}

// do performs one API round-trip: 2xx decodes into out, non-2xx decodes
// the error envelope into a typed *Error.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return fmt.Errorf("%s %s: read response: %w", method, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: status %d: decode: %w", method, path, resp.StatusCode, err)
		}
		return nil
	}
	return decodeError(resp.StatusCode, data)
}

// maxResponseBytes caps the part of a response body do reads.
const maxResponseBytes = 256 << 20

// readBody reads a response body of up to maxResponseBytes. A body of
// declared length is read into one buffer of that length; io.ReadAll
// would grow its buffer by doubling, copying a large job document
// about twice over. A body shorter than its declared length fails in
// the transport either way.
func readBody(resp *http.Response) ([]byte, error) {
	if n := resp.ContentLength; n >= 0 && n <= maxResponseBytes {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
}

// decodeError maps a non-2xx body onto *Error. Bodies that are not the
// v1 envelope (proxies, panics) still produce a typed error with the
// raw text as the message.
func decodeError(status int, data []byte) *Error {
	var env ErrorEnvelope
	if err := json.Unmarshal(data, &env); err == nil && env.Err.Code != "" {
		return &Error{Status: status, Code: env.Err.Code, Message: env.Err.Message}
	}
	msg := strings.TrimSpace(string(data))
	if msg == "" {
		msg = http.StatusText(status)
	}
	code := CodeInternal
	switch status {
	case http.StatusNotFound:
		code = CodeNotFound
	case http.StatusBadRequest:
		code = CodeInvalidRequest
	case http.StatusServiceUnavailable:
		code = CodeUnavailable
	}
	return &Error{Status: status, Code: code, Message: msg}
}
