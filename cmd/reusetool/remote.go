package main

import (
	"context"
	"errors"
	"fmt"
	"io"

	"reusetool/pkg/client"
)

// runRemote is the -remote client, built on the typed pkg/client API:
// it submits the request to a reusetoold daemon (or a cluster
// coordinator — both serve the same v1 surface), waits for the job to
// finish, and prints the daemon-rendered report. Temporary rejections
// (queue full, draining, coordinator upstream failures) are retried
// with jittered backoff inside the client. Context cancellation (the
// -timeout flag) aborts the wait and best-effort cancels the job
// server-side.
func runRemote(ctx context.Context, base string, req client.AnalyzeRequest, out, errw io.Writer) error {
	cl := client.New(base)
	job, err := cl.Analyze(ctx, req)
	if err != nil {
		return err
	}
	return awaitRemote(ctx, cl, job, "job", "", out, errw)
}

// awaitRemote waits for a submitted job and prints the daemon-rendered
// report. what names the job on stderr ("job", "fit job") and served
// what a cache hit returns ("", "model "). A canceled job maps onto
// DeadlineExceeded: the job deadline is the -timeout flag's
// server-side half, so it exits like a local deadline.
func awaitRemote(ctx context.Context, cl *client.Client, job *client.Job, what, served string, out, errw io.Writer) error {
	if !job.CacheHit && !job.Status.Terminal() {
		fmt.Fprintf(errw, "%s %s queued on %s\n", what, job.ID, cl.BaseURL())
		var err error
		if job, err = cl.Wait(ctx, job.ID); err != nil {
			return err
		}
	}
	// Against a coordinator the hit surfaces on the polled document, not
	// the 202 — check after the wait so both paths report it.
	if job.CacheHit {
		fmt.Fprintf(errw, "%sserved from daemon cache (key %.12s…)\n", served, job.Key)
	}
	switch job.Status {
	case client.JobDone:
		_, err := io.WriteString(out, job.Report)
		return err
	case client.JobCanceled:
		return fmt.Errorf("%s %s canceled (%s): %w", what, job.ID, job.Error, context.DeadlineExceeded)
	default:
		return fmt.Errorf("%s %s %s: %s", what, job.ID, job.Status, job.Error)
	}
}

// describeRemoteError unwraps a typed API error for the exit message,
// so scripted callers see the machine-readable code.
func describeRemoteError(err error) string {
	var apiErr *client.Error
	if errors.As(err, &apiErr) {
		return fmt.Sprintf("%s: %s", apiErr.Code, apiErr.Message)
	}
	return err.Error()
}
