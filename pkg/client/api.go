package client

// This file is the source of truth for the reusetoold v1 wire format.
// The server (internal/server) and the cluster coordinator
// (internal/cluster) marshal these exact types, so a client built on
// this package can never drift from the daemon.

// APIVersion is stamped into every v1 response body.
const APIVersion = "v1"

// AnalyzeRequest is the POST /v1/analyze body. Exactly one program
// source must be given: a built-in workload name, inline .loop source,
// or a saved persist stream (base64-encoded by encoding/json) — the
// artifact may also accompany a workload/program, in which case the
// collector is restored from it instead of re-running the interpreter.
// The remaining fields mirror core.Options and the CLI's report knobs.
type AnalyzeRequest struct {
	// Workload names a built-in workload (see workloads.Names).
	Workload string `json:"workload,omitempty"`
	// Program is inline .loop source (see internal/lang).
	Program string `json:"program,omitempty"`
	// Artifact is a persist-v2 stream of previously collected data.
	Artifact []byte `json:"artifact,omitempty"`

	// Params override program parameter defaults.
	Params map[string]int64 `json:"params,omitempty"`
	// Hierarchy selects the target machine: "scaled" (default), "full",
	// or "opteron".
	Hierarchy string `json:"hierarchy,omitempty"`
	// Mode selects the pipeline: "dynamic" (default) or "static".
	Mode string `json:"mode,omitempty"`
	// HistRes overrides the histogram resolution (0 = default). A
	// request with an Artifact cannot set it: the artifact's histograms
	// keep the resolution they were collected at.
	HistRes int `json:"histres,omitempty"`
	// Level and MinShare shape the rendered text report (defaults "L2",
	// 0.02).
	Level    string  `json:"level,omitempty"`
	MinShare float64 `json:"minshare,omitempty"`
	// TimeoutMS overrides the job deadline, capped by the daemon.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// SampleRate enables SHARDS spatial sampling at rate R (power of
	// two): ~1 in R memory blocks is analyzed and the report carries
	// scaled estimates. 0 and 1 analyze exactly. Dynamic mode only.
	SampleRate uint64 `json:"sample_rate,omitempty"`
	// SampleMaxBlocks bounds tracked blocks per engine; the rate adapts
	// upward as the cap fills (constant memory for any trace length).
	SampleMaxBlocks int `json:"sample_max_blocks,omitempty"`
	// SampleSeed perturbs the admission hash (0 = fixed default).
	SampleSeed uint64 `json:"sample_seed,omitempty"`
}

// CheckRequest is the POST /v1/check body: run the static reuse
// checker (internal/reusecheck) over one program. Exactly one of
// Workload or Program must be set. Checks run synchronously — no job
// is scheduled and no cache entry is written — so the response carries
// the diagnostics directly.
type CheckRequest struct {
	// Workload names a built-in workload (see workloads.Names).
	Workload string `json:"workload,omitempty"`
	// Program is inline .loop source (see internal/lang).
	Program string `json:"program,omitempty"`
	// Params override program parameter defaults.
	Params map[string]int64 `json:"params,omitempty"`
	// Hierarchy selects the machine miss deltas are predicted on:
	// "scaled" (default), "full", or "opteron".
	Hierarchy string `json:"hierarchy,omitempty"`
	// Level is the hierarchy level miss deltas are reported at
	// (default "L2").
	Level string `json:"level,omitempty"`
}

// CheckDiagnostic is one finding in a CheckResponse. It mirrors
// reusecheck.Diagnostic field for field (same JSON tags), so the CLI's
// -check -json output and the service speak the same schema.
type CheckDiagnostic struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Code string `json:"code"`
	// Severity is "defect", "opportunity" or "note".
	Severity string `json:"severity"`
	Msg      string `json:"msg"`
	// Hint is a fix-it suggestion.
	Hint string `json:"hint,omitempty"`
	// MissDelta is the predicted miss reduction at Level (opportunities).
	MissDelta float64 `json:"miss_delta,omitempty"`
	Level     string  `json:"level,omitempty"`
	// Transform names the fixing transformation ("hoist",
	// "interchange", "time-skew").
	Transform string `json:"transform,omitempty"`
	// Legality is the dependence verdict on Transform: "legal",
	// "illegal" or "unknown".
	Legality     string `json:"legality,omitempty"`
	LegalityNote string `json:"legality_note,omitempty"`
}

// CheckResponse is the POST /v1/check response: the deduplicated,
// file:line:code-sorted diagnostics and the finding count (defects and
// opportunities; notes are informational only).
type CheckResponse struct {
	APIVersion string `json:"api_version"`
	// Program is the checked program's name.
	Program string `json:"program"`
	// Findings counts non-note diagnostics — the same quantity that
	// drives the CLI checker's exit code.
	Findings    int               `json:"findings"`
	Diagnostics []CheckDiagnostic `json:"diagnostics"`
}

// FitRequest is the POST /v1/fit body: fit a cross-input scaling model
// from 2–8 (3–5 recommended) small-input training runs of one program.
// Exactly one of Workload or Program must be set. Each TrainParams
// entry is one training run's parameter overrides; the daemon runs (or
// serves from cache) one analysis per entry, then fits. Training runs
// must be exact or R=1 sampled — adaptive or R>1 sampling is refused
// with code "unsound_training_input".
type FitRequest struct {
	// Workload names a built-in workload (see workloads.Names).
	Workload string `json:"workload,omitempty"`
	// Program is inline .loop source (see internal/lang).
	Program string `json:"program,omitempty"`
	// TrainParams lists the training bindings, one map of parameter
	// overrides per run.
	TrainParams []map[string]int64 `json:"train_params"`
	// Hierarchy selects the target machine: "scaled" (default), "full",
	// or "opteron".
	Hierarchy string `json:"hierarchy,omitempty"`
	// HistRes overrides the histogram resolution (0 = default).
	HistRes int `json:"histres,omitempty"`
	// TimeoutMS overrides the fit job deadline, capped by the daemon.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// SampleRate may be 1 (exact-equivalent SHARDS sampling) or 0/unset;
	// any other value — and SampleMaxBlocks — is an unsound fit input.
	SampleRate uint64 `json:"sample_rate,omitempty"`
	// SampleMaxBlocks must be 0: adaptive bounded-memory sampling yields
	// scaled estimates and is refused.
	SampleMaxBlocks int `json:"sample_max_blocks,omitempty"`
	// SampleSeed perturbs the admission hash when SampleRate is 1.
	SampleSeed uint64 `json:"sample_seed,omitempty"`
}

// PredictRequest is the POST /v1/predict body: answer a what-if query
// from a fitted model without running the interpreter. The model is
// addressed either directly by cache key (Model, as returned in the fit
// job's Key) or by restating the fit spec (same fields as FitRequest),
// which re-derives the same key.
type PredictRequest struct {
	// Model is the fitted model's cache key (from the /v1/fit job).
	Model string `json:"model,omitempty"`

	// The fit-spec fields mirror FitRequest and are used only when Model
	// is empty.
	Workload    string             `json:"workload,omitempty"`
	Program     string             `json:"program,omitempty"`
	TrainParams []map[string]int64 `json:"train_params,omitempty"`
	Hierarchy   string             `json:"hierarchy,omitempty"`
	HistRes     int                `json:"histres,omitempty"`

	// Params is the what-if binding to predict (defaults fill the rest).
	Params map[string]int64 `json:"params,omitempty"`
	// Level selects the report's focus level (default "L2").
	Level string `json:"level,omitempty"`
}

// PredictedLevel is one cache level's predicted miss breakdown.
type PredictedLevel struct {
	Level string `json:"level"`
	// TotalMisses is the expected miss count under the probabilistic
	// set-associative model, compulsory misses included.
	TotalMisses float64 `json:"total_misses"`
	// ColdMisses is the predicted compulsory-miss count.
	ColdMisses float64 `json:"cold_misses"`
	// CapacityMisses is TotalMisses minus ColdMisses, clamped at zero.
	CapacityMisses float64 `json:"capacity_misses"`
}

// PredictResponse is the POST /v1/predict response, served synchronously
// from the cached model.
type PredictResponse struct {
	APIVersion string `json:"api_version"`
	// Model is the cache key of the model that answered.
	Model string `json:"model"`
	// Params is the complete binding predicted (overrides + defaults).
	Params map[string]int64 `json:"params"`
	Levels []PredictedLevel `json:"levels"`
	// ElapsedUS is the server-side model-lookup + reconstruction time in
	// microseconds — the quantity the sub-millisecond contract is on.
	ElapsedUS float64 `json:"elapsed_us"`
	// Report is the rendered predicted report with the fit-disclosure
	// footer.
	Report string `json:"report,omitempty"`
}

// JobStatus is the lifecycle state of a scheduled analysis.
type JobStatus string

// Job lifecycle states. Queued jobs sit in the FIFO queue; Running jobs
// occupy a worker; the three terminal states distinguish success,
// failure, and cancellation (which includes deadline expiry).
const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is the wire form of a job in API responses.
type Job struct {
	APIVersion string    `json:"api_version,omitempty"`
	ID         string    `json:"id"`
	Status     JobStatus `json:"status"`
	Key        string    `json:"key"`
	CacheHit   bool      `json:"cache_hit"`
	// Node is the worker that ran the job, set by the coordinator.
	Node string `json:"node,omitempty"`
	// Rerouted counts how many times the coordinator moved the job to
	// another worker after a node failure.
	Rerouted  int    `json:"rerouted,omitempty"`
	Error     string `json:"error,omitempty"`
	Submitted string `json:"submitted,omitempty"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	Report    string `json:"report,omitempty"`
	Result    []byte `json:"result,omitempty"`
}

// JobList is the GET /v1/jobs response: job summaries (no report or
// result payloads) in submission order.
type JobList struct {
	APIVersion string `json:"api_version"`
	Jobs       []Job  `json:"jobs"`
}

// Health is the GET /v1/health (and legacy /healthz) response.
type Health struct {
	APIVersion string `json:"api_version,omitempty"`
	// Status is "ok" or "draining".
	Status string `json:"status"`
	// Role distinguishes a worker daemon from a coordinator.
	Role       string `json:"role,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
	// NodesHealthy counts registered healthy workers (coordinator only).
	NodesHealthy int `json:"nodes_healthy,omitempty"`
}

// Node is one worker's state in the coordinator's GET /v1/nodes
// response.
type Node struct {
	// URL is the worker daemon's base address.
	URL string `json:"url"`
	// Healthy reports ring membership: false means the node was evicted
	// after consecutive probe failures and takes no new jobs.
	Healthy bool `json:"healthy"`
	// Inflight counts jobs the coordinator currently has on this node.
	Inflight int `json:"inflight"`
	// Failures counts consecutive failed health probes.
	Failures int `json:"failures,omitempty"`
}

// NodeList is the GET /v1/nodes response (coordinator only), in
// sorted URL order.
type NodeList struct {
	APIVersion string `json:"api_version"`
	Nodes      []Node `json:"nodes"`
}

// ErrorCode classifies API failures so clients can branch without
// parsing messages.
type ErrorCode string

// Error codes carried in the {"error":{"code",...}} envelope.
const (
	// CodeInvalidRequest: the request body or parameters were rejected (400).
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeTooLarge: the request body exceeded the daemon's cap (413).
	CodeTooLarge ErrorCode = "too_large"
	// CodeNotFound: no such job, node, or cache entry (404).
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict: the operation does not apply in the current state,
	// e.g. canceling a finished job (409).
	CodeConflict ErrorCode = "conflict"
	// CodeQueueFull: the scheduler queue is at capacity; retry with
	// backoff (429).
	CodeQueueFull ErrorCode = "queue_full"
	// CodeDraining: the daemon is shutting down and refuses intake (503).
	CodeDraining ErrorCode = "draining"
	// CodeUnavailable: no healthy worker can take the job (503).
	CodeUnavailable ErrorCode = "unavailable"
	// CodeUpstream: the coordinator could not reach a worker (502).
	CodeUpstream ErrorCode = "upstream"
	// CodeUnsoundTrainingInput: a /v1/fit request asked for adaptive or
	// R>1 sampled training runs, whose scaled estimates are unsound
	// model-fit inputs (400).
	CodeUnsoundTrainingInput ErrorCode = "unsound_training_input"
	// CodeInternal: unexpected server-side failure (500).
	CodeInternal ErrorCode = "internal"
)

// ErrorBody is the structured error carried on every non-2xx response.
type ErrorBody struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// ErrorEnvelope is the non-2xx response body:
// {"api_version":"v1","error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	APIVersion string    `json:"api_version,omitempty"`
	Err        ErrorBody `json:"error"`
}

// Error is the typed client-side form of an API failure.
type Error struct {
	// Status is the HTTP status code of the response.
	Status int
	// Code is the machine-readable error class.
	Code ErrorCode
	// Message is the human-readable detail.
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return "reusetoold: " + string(e.Code) + " (" + e.Message + ")"
}

// Temporary reports whether retrying the same request later may
// succeed: back-pressure, drain, and upstream connectivity failures
// are temporary; validation failures are not.
func (e *Error) Temporary() bool {
	switch e.Code {
	case CodeQueueFull, CodeDraining, CodeUnavailable, CodeUpstream:
		return true
	}
	return e.Status >= 500
}
