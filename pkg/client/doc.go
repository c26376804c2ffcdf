// Package client is the typed Go client for the reusetoold v1 API —
// the public, supported way to talk to an analysis daemon or a cluster
// coordinator. It owns the wire types (the server marshals these exact
// structs), classifies failures with machine-readable error codes, and
// retries temporary rejections with jittered exponential backoff.
//
// # API reference
//
// Every response body carries "api_version":"v1". Non-2xx responses
// carry {"api_version":"v1","error":{"code","message"}}; the codes are
// the ErrorCode constants in this package.
//
//	method + path        request          2xx response    notes
//	-------------------  ---------------  --------------  ------------------------------------------
//	POST /v1/analyze     AnalyzeRequest   Job             200 = cache hit, 202 = queued;
//	                                                      429 queue_full, 503 draining/unavailable
//	GET /v1/jobs/{id}    —                Job             404 not_found after pruning
//	GET /v1/jobs         ?state=queued…   JobList         summaries only (no report/result)
//	DELETE /v1/jobs/{id} —                Job             409 conflict if already terminal
//	GET /v1/health       —                Health          503 while draining; /healthz is an alias
//	GET /v1/nodes        —                (coordinator)   per-node health and inflight counts
//	GET /v1/cache/{key}  —                gob entry       daemon-to-daemon shared cache tier
//	PUT /v1/cache/{key}  gob entry        —               digest- and fingerprint-checked before storing
//	GET /metrics         —                Prometheus text
//
// The PR 5 routes are unchanged and remain fully compatible: /healthz
// aliases /v1/health, and the analyze/jobs endpoints kept their paths
// and job-document field names — this package only added api_version,
// node, and rerouted fields alongside them.
//
// # Usage
//
//	cl := client.New("http://127.0.0.1:8375")
//	job, err := cl.Analyze(ctx, client.AnalyzeRequest{Workload: "sweep3d"})
//	if err != nil { ... }
//	if !job.Status.Terminal() {
//		job, err = cl.Wait(ctx, job.ID)
//	}
//	fmt.Print(job.Report)
//
// Typed failures unwrap to *client.Error:
//
//	var apiErr *client.Error
//	if errors.As(err, &apiErr) && apiErr.Code == client.CodeQueueFull { ... }
package client
