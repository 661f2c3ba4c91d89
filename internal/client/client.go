// Package client is the zero-dependency Go client for a `spire serve`
// instance: /v1/estimate, /v1/ingest, the /v1/stream feed and its SSE
// subscription. It encodes the retry contract the serving tier's
// admission layer (internal/admission) assumes of well-behaved callers:
//
//   - Capped exponential backoff with full jitter. Retry delays are
//     drawn uniformly from [0, min(MaxDelay, BaseDelay·2^attempt)], so a
//     fleet of clients shedding together does not re-arrive together
//     (no thundering herd). The jitter PRNG is seedable for reproducible
//     tests.
//
//   - Retry-After honoring. A 429 (or 503) carrying Retry-After waits at
//     least that long, plus a jittered slice of BaseDelay so synchronized
//     rejections desynchronize.
//
//   - Idempotency-safe classification. A request is retried only when it
//     is replayable (its body can be rebuilt from scratch) AND
//     idempotent on the server. Estimation is a pure function — always
//     retriable. Ingest parses and returns; it is retriable only when
//     the caller supplies a rebuildable body. A stream feed ADVANCES the
//     server's sliding window; the client never blindly retries one,
//     because a transport error cannot prove the server didn't consume
//     the bytes. Callers that want feed retries must re-send explicitly
//     with their own dedup (the stream's interval accounting surfaces
//     drops).
//
//   - Context cancellation everywhere, including mid-backoff.
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
	"strconv"
	"strings"
	"sync"
	"time"

	"spire/internal/core"
	"spire/internal/wire"
)

// TenantHeader is the header the admission layer reads quotas tenants
// from.
const TenantHeader = "X-Spire-Tenant"

// Config tunes a Client. Only BaseURL is required.
type Config struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Tenant, when set, is sent as X-Spire-Tenant on every request.
	Tenant string
	// HTTPClient overrides the transport (tests inject chaos here).
	// Nil selects a plain &http.Client{}.
	HTTPClient *http.Client
	// MaxAttempts caps total tries per call, first included. Default 5.
	MaxAttempts int
	// BaseDelay scales the backoff. Default 100ms.
	BaseDelay time.Duration
	// MaxDelay caps any one backoff sleep. Default 5s.
	MaxDelay time.Duration
	// MaxRetryAfter caps how much server-supplied Retry-After is
	// honored: a huge (buggy or hostile) value delays the retry by at
	// most this much instead of wedging the caller. Default 60s.
	MaxRetryAfter time.Duration
	// Seed drives the jitter PRNG; 0 seeds from the wall clock.
	Seed int64
	// OnRetry, when set, observes every backoff decision (tests assert
	// jitter statistics through it; metrics hooks fit too).
	OnRetry func(RetryInfo)
}

// RetryInfo describes one scheduled retry.
type RetryInfo struct {
	// Attempt is the attempt that just failed, 1-based.
	Attempt int
	// Delay is the backoff chosen before the next attempt.
	Delay time.Duration
	// Status is the HTTP status that failed the attempt, 0 for
	// transport errors.
	Status int
	// RetryAfter is the server's Retry-After, 0 if absent.
	RetryAfter time.Duration
	// Err is the failure being retried.
	Err error
}

// APIError is a non-2xx response from the service.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After header, 0 if absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("spire api: status %d: %s", e.Status, e.Message)
}

// Client talks to one spire serve instance. Safe for concurrent use.
type Client struct {
	cfg  Config
	http *http.Client

	mu  sync.Mutex
	rng *rand.Rand
}

// New builds a Client. The only error is a missing/invalid BaseURL.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("client: BaseURL required")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if !strings.HasPrefix(cfg.BaseURL, "http://") && !strings.HasPrefix(cfg.BaseURL, "https://") {
		return nil, fmt.Errorf("client: BaseURL %q must be http(s)", cfg.BaseURL)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.BaseDelay <= 0 {
		cfg.BaseDelay = 100 * time.Millisecond
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 5 * time.Second
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 60 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{cfg: cfg, http: hc, rng: rand.New(rand.NewSource(seed))}, nil
}

// jitter draws uniformly from [0, d).
func (c *Client) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d)))
}

// backoff computes the sleep before retrying attempt (1-based): full
// jitter over the capped exponential, floored by the server's
// Retry-After when present.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	ceil := c.cfg.BaseDelay << uint(attempt-1)
	if ceil > c.cfg.MaxDelay || ceil <= 0 {
		ceil = c.cfg.MaxDelay
	}
	d := c.jitter(ceil)
	if retryAfter > 0 {
		// Honor the server's wait, desynchronized by a jittered slice of
		// BaseDelay so a synchronized shed doesn't re-arrive
		// synchronized — but never beyond MaxRetryAfter, so a huge
		// Retry-After cannot wedge the caller.
		if retryAfter > c.cfg.MaxRetryAfter {
			retryAfter = c.cfg.MaxRetryAfter
		}
		d = retryAfter + c.jitter(c.cfg.BaseDelay)
	}
	return d
}

// retryAfterOf parses a Retry-After header: delta-seconds or HTTP-date.
func retryAfterOf(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// retryableStatus reports whether a status is worth retrying for an
// idempotent request.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// result is one attempt's outcome: the read body on success, or the
// classified failure.
type result struct {
	status     int
	header     http.Header
	body       []byte
	err        error // transport error, nil if a response arrived
	retryAfter time.Duration
}

// do runs one call with the retry loop. getBody rebuilds the request
// body from scratch for each attempt; nil getBody means the request has
// no body. A nil getBody on a bodied method, or idempotent=false, makes
// the call single-shot: it is never retried after the bytes may have
// reached the server.
func (c *Client) do(ctx context.Context, method, path string, query string,
	getBody func() (io.Reader, error), contentType, accept string, idempotent bool) (*result, error) {

	url := c.cfg.BaseURL + path
	if query != "" {
		url += "?" + query
	}
	replayable := getBody != nil || method == http.MethodGet
	for attempt := 1; ; attempt++ {
		res := c.attempt(ctx, method, url, getBody, contentType, accept)
		if res.err == nil && !retryableStatus(res.status) {
			return res, nil // success or a definitive (non-retryable) answer
		}
		// Decide whether a retry is safe and useful.
		err := res.err
		if err == nil {
			err = &APIError{Status: res.status, Message: strings.TrimSpace(string(res.body)), RetryAfter: res.retryAfter}
		}
		switch {
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case !idempotent || !replayable:
			// The bytes may have reached the server; retrying could
			// apply a non-idempotent effect twice. Fail fast.
			return nil, fmt.Errorf("client: %s %s (not retried: non-idempotent): %w", method, path, err)
		case attempt >= c.cfg.MaxAttempts:
			return nil, fmt.Errorf("client: %s %s: gave up after %d attempts: %w", method, path, attempt, err)
		}
		delay := c.backoff(attempt, res.retryAfter)
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry(RetryInfo{Attempt: attempt, Delay: delay, Status: res.status, RetryAfter: res.retryAfter, Err: err})
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
}

// attempt runs exactly one HTTP exchange.
func (c *Client) attempt(ctx context.Context, method, url string,
	getBody func() (io.Reader, error), contentType, accept string) *result {

	var body io.Reader
	if getBody != nil {
		b, err := getBody()
		if err != nil {
			return &result{err: fmt.Errorf("building request body: %w", err)}
		}
		body = b
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return &result{err: err}
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.cfg.Tenant != "" {
		req.Header.Set(TenantHeader, c.cfg.Tenant)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return &result{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		// The response died mid-body (truncation, reset): a transport
		// failure, not a server answer.
		return &result{err: fmt.Errorf("reading response: %w", err)}
	}
	return &result{status: resp.StatusCode, header: resp.Header, body: raw, retryAfter: retryAfterOf(resp)}
}

// decodeAPI unmarshals a definitive response, mapping non-200s to
// *APIError with the server's error message.
func decodeAPI(res *result, v any) error {
	if res.status != http.StatusOK {
		msg := strings.TrimSpace(string(res.body))
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(res.body, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return &APIError{Status: res.status, Message: msg, RetryAfter: res.retryAfter}
	}
	if v == nil {
		return nil
	}
	if err := json.Unmarshal(res.body, v); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	return nil
}

// Wire formats selectable on calls that support binary transport.
const (
	// WireJSON is the default JSON encoding.
	WireJSON = "json"
	// WireBin selects the SPB1 binary wire format (internal/wire) for
	// both the request body and, via Accept, the response.
	WireBin = "bin"
)

// EstimateOptions tune one estimation call.
type EstimateOptions struct {
	// Top truncates the returned ranking; 0 returns all metrics.
	Top int
	// Workers requests a server-side worker budget; 0 is the server
	// default. Results are byte-identical for any value.
	Workers int
	// Wire selects the transport encoding: "" or WireJSON for JSON,
	// WireBin for the SPB1 binary format. The decoded Estimation is
	// byte-identical either way; only the bytes on the wire differ. A
	// server predating the binary format answers a WireBin request's
	// Accept with JSON, which this client still decodes.
	Wire string
	// Sched optionally ships the workload's scheduler events; the server
	// then attaches the combined on/off-CPU report to the estimation.
	Sched []core.SchedEvent
}

// EstimateResult is one successful estimation.
type EstimateResult struct {
	// Model is the serving model's content-addressed ID.
	Model string
	// Estimation is the full result, identical to `spire analyze -json`
	// under the same model.
	Estimation *core.Estimation
	// Degraded reports the response came from the server's
	// saturated-mode cache (X-Spire-Degraded).
	Degraded bool
	// Raw is the exact response body (byte-identity checks, caching).
	Raw []byte
}

// Estimate runs one estimation. Estimation is a pure function of
// (model, samples), so it retries freely on overload and transport
// faults, honoring Retry-After.
func (c *Client) Estimate(ctx context.Context, samples []core.Sample, opts EstimateOptions) (*EstimateResult, error) {
	var (
		reqBody []byte
		ct      = "application/json"
		accept  string
		err     error
	)
	req := &wire.EstimateRequest{Samples: samples, Top: opts.Top, Workers: opts.Workers, Sched: opts.Sched}
	switch opts.Wire {
	case "", WireJSON:
		reqBody, err = json.Marshal(req)
		if err != nil {
			return nil, err
		}
	case WireBin:
		reqBody = wire.AppendEstimateRequest(nil, req)
		ct = wire.ContentTypeBin
		accept = wire.ContentTypeBin
	default:
		return nil, fmt.Errorf("client: unknown wire format %q (want %q or %q)", opts.Wire, WireJSON, WireBin)
	}
	res, err := c.do(ctx, http.MethodPost, "/v1/estimate", "",
		func() (io.Reader, error) { return bytes.NewReader(reqBody), nil },
		ct, accept, true)
	if err != nil {
		return nil, err
	}
	degraded := res.header.Get("X-Spire-Degraded") != ""
	if res.status == http.StatusOK && wire.IsBinMedia(res.header.Get("Content-Type")) {
		wres, err := wire.DecodeEstimateResponse(res.body)
		if err != nil {
			return nil, fmt.Errorf("decoding binary response: %w", err)
		}
		return &EstimateResult{
			Model:      wres.Model,
			Estimation: wres.Estimation,
			Degraded:   degraded,
			Raw:        res.body,
		}, nil
	}
	// JSON response: the default, and also every error body (errors are
	// JSON regardless of the negotiated wire format).
	var body wire.EstimateResponse
	if err := decodeAPI(res, &body); err != nil {
		return nil, err
	}
	return &EstimateResult{
		Model:      body.Model,
		Estimation: body.Estimation,
		Degraded:   degraded,
		Raw:        res.body,
	}, nil
}

// IngestOptions tune one ingest call.
type IngestOptions struct {
	// Strict selects mode=strict (any severe anomaly fails the call).
	Strict bool
	// MinRunPct forwards the multiplexing floor, 0 omits it.
	MinRunPct float64
}

// IngestResult mirrors the service's /v1/ingest response.
type IngestResult struct {
	Samples     []core.Sample   `json:"samples"`
	Quarantined int             `json:"quarantined"`
	Diags       json.RawMessage `json:"diags,omitempty"`
}

// Ingest parses raw perf-stat CSV / simulator JSON server-side. Parsing
// is pure, but the body can be huge and streamed — so retries happen
// only when the caller provides a rebuildable body via getBody (e.g.
// reopening a file). Pass BytesBody for in-memory payloads.
func (c *Client) Ingest(ctx context.Context, getBody func() (io.Reader, error), opts IngestOptions) (*IngestResult, error) {
	if getBody == nil {
		return nil, errors.New("client: Ingest needs a body factory (use BytesBody for in-memory data)")
	}
	q := ""
	if opts.Strict {
		q = "mode=strict"
	}
	if opts.MinRunPct > 0 {
		if q != "" {
			q += "&"
		}
		q += "min_run_pct=" + strconv.FormatFloat(opts.MinRunPct, 'g', -1, 64)
	}
	res, err := c.do(ctx, http.MethodPost, "/v1/ingest", q, getBody, "text/plain", "", true)
	if err != nil {
		return nil, err
	}
	var out IngestResult
	if err := decodeAPI(res, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// FeedResult mirrors the service's POST /v1/stream response.
type FeedResult struct {
	Bytes int64           `json:"bytes"`
	Stats json.RawMessage `json:"stats"`
}

// FeedStream pushes interval text into the live sliding-window stream.
// Feeding is NOT idempotent — the server's window advances as bytes
// arrive — so this call is single-shot by design: any failure after the
// body may have been consumed is returned to the caller, never blindly
// retried. (A quota 429 is also returned un-retried: re-sending is the
// caller's dedup decision.)
func (c *Client) FeedStream(ctx context.Context, body io.Reader) (*FeedResult, error) {
	return c.feedStream(ctx, body, "text/plain")
}

// FeedStreamBin pushes pre-encoded SPB1 sample-batch frames
// (wire.AppendSampleBatch) into the live stream. Same single-shot,
// never-retried contract as FeedStream: the server's window advances as
// frames decode, so a failure after bytes may have been consumed is the
// caller's dedup decision.
func (c *Client) FeedStreamBin(ctx context.Context, body io.Reader) (*FeedResult, error) {
	return c.feedStream(ctx, body, wire.ContentTypeBin)
}

func (c *Client) feedStream(ctx context.Context, body io.Reader, contentType string) (*FeedResult, error) {
	res, err := c.do(ctx, http.MethodPost, "/v1/stream", "",
		func() (io.Reader, error) { return body, nil }, contentType, "", false)
	if err != nil {
		return nil, err
	}
	var out FeedResult
	if err := decodeAPI(res, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// BytesBody adapts an in-memory payload to a rebuildable body factory.
func BytesBody(b []byte) func() (io.Reader, error) {
	return func() (io.Reader, error) { return bytes.NewReader(b), nil }
}

// Readyz reports whether the instance is ready for traffic (GET
// /readyz). Single attempt: readiness probes are themselves the retry
// loop.
func (c *Client) Readyz(ctx context.Context) (bool, error) {
	res := c.attempt(ctx, http.MethodGet, c.cfg.BaseURL+"/readyz", nil, "", "")
	if res.err != nil {
		return false, res.err
	}
	return res.status == http.StatusOK, nil
}
