package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

func fig2FitReq() client.FitRequest {
	return client.FitRequest{
		Workload:    "fig2",
		TrainParams: []map[string]int64{{"N": 64}, {"N": 96}, {"N": 128}},
	}
}

// TestCoordinatorFitSchedulesTrainingAcrossRing: a /v1/fit submission
// fans the training analyses out as related jobs, seeds the fit owner's
// cache, and completes the fit; /v1/predict then answers from the
// cached model through the coordinator.
func TestCoordinatorFitSchedulesTrainingAcrossRing(t *testing.T) {
	c, workers, cl := newCluster(t, 2, server.Config{Workers: 2}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	job, err := cl.Fit(ctx, fig2FitReq())
	if err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobDone {
		t.Fatalf("fit job: %s (%s)", done.Status, done.Error)
	}
	if owner := c.Ring().Owner(done.Key); done.Node != owner {
		t.Fatalf("fit placed on %s, model key's ring owner is %s", done.Node, owner)
	}

	// The three training runs are registered as related jobs under the
	// parent's ID, each terminal and sharded by its own cache key.
	list, err := cl.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	related, elsewhere := 0, 0
	for _, j := range list {
		if !strings.HasPrefix(j.ID, job.ID+"-t") {
			continue
		}
		related++
		if j.Status != client.JobDone {
			t.Fatalf("training job %s: %s (%s)", j.ID, j.Status, j.Error)
		}
		if owner := c.Ring().Owner(j.Key); j.Node != owner {
			t.Fatalf("training job %s on %s, ring owner is %s", j.ID, j.Node, owner)
		}
		if j.Node != done.Node {
			elsewhere++
		}
	}
	if related != 3 {
		t.Fatalf("found %d related training jobs, want 3", related)
	}

	// Seeding copied every training entry that ran elsewhere onto the fit
	// owner, which then served all three training inputs from its cache.
	var fitOwner *server.Server
	for _, w := range workers {
		if w.url() == done.Node {
			fitOwner = w.srv
		}
	}
	if fitOwner == nil {
		t.Fatalf("fit node %s is not a worker", done.Node)
	}
	if got := fitOwner.Metrics().PeerPuts.Load(); got != uint64(elsewhere) {
		t.Fatalf("fit owner peer puts = %d, want %d (training jobs on other nodes)", got, elsewhere)
	}
	if got := fitOwner.Metrics().FitWarmHits.Load(); got != 3 {
		t.Fatalf("fit owner warm training hits = %d, want 3", got)
	}
	if got := c.Metrics().TrainingJobsScheduled.Load(); got != 3 {
		t.Fatalf("training_jobs_total = %d, want 3", got)
	}
	if got := c.Metrics().FitsProxied.Load(); got != 1 {
		t.Fatalf("fits_proxied = %d, want 1", got)
	}

	// Predict a 16x input through the coordinator: proxied to the model
	// owner, answered from the cached model.
	resp, err := cl.Predict(ctx, client.PredictRequest{
		Workload:    "fig2",
		TrainParams: fig2FitReq().TrainParams,
		Params:      map[string]int64{"N": 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Model != done.Key {
		t.Fatalf("predict model %s, fit key %s", resp.Model, done.Key)
	}
	if len(resp.Levels) == 0 || resp.ElapsedUS <= 0 {
		t.Fatalf("predict response incomplete: %+v", resp)
	}
	if got := c.Metrics().PredictsProxied.Load(); got != 1 {
		t.Fatalf("predicts_proxied = %d, want 1", got)
	}

	// Refit: the model is cached on its owner, so the fit job completes
	// as a cache hit without re-scheduling training jobs.
	job2, err := cl.Fit(ctx, fig2FitReq())
	if err != nil {
		t.Fatal(err)
	}
	done2, err := cl.Wait(ctx, job2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done2.Status != client.JobDone || !done2.CacheHit {
		t.Fatalf("warm refit: status=%s cache_hit=%v", done2.Status, done2.CacheHit)
	}
}

// TestCoordinatorFitRejectsUnsoundSampling is the cluster-surface
// contract: unsound sampling never reaches a worker and fails with the
// typed code.
func TestCoordinatorFitRejectsUnsoundSampling(t *testing.T) {
	_, _, cl := newCluster(t, 1, server.Config{Workers: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	req := fig2FitReq()
	req.SampleRate = 8
	_, err := cl.Fit(ctx, req)
	var apiErr *client.Error
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeUnsoundTrainingInput {
		t.Fatalf("fit with R=8: %v, want %s", err, client.CodeUnsoundTrainingInput)
	}

	req = fig2FitReq()
	req.SampleRate = 1
	req.SampleMaxBlocks = 256
	if _, err := cl.Fit(ctx, req); !errors.As(err, &apiErr) || apiErr.Code != client.CodeUnsoundTrainingInput {
		t.Fatalf("fit with adaptive sampling: %v, want %s", err, client.CodeUnsoundTrainingInput)
	}

	// Predict against a model that was never fitted: the worker's typed
	// not_found is forwarded verbatim, not retried around the ring.
	_, err = cl.Predict(ctx, client.PredictRequest{
		Workload:    "fig2",
		TrainParams: fig2FitReq().TrainParams,
		Params:      map[string]int64{"N": 512},
	})
	if !errors.As(err, &apiErr) || apiErr.Code != client.CodeNotFound {
		t.Fatalf("predict without model: %v, want not_found", err)
	}
}

// TestCoordinatorPrunesTerminalJobs: past its cap the coordinator's
// registry drops its oldest terminal jobs, which then answer 404, while
// a live fit and its in-flight training children stay listed.
func TestCoordinatorPrunesTerminalJobs(t *testing.T) {
	c, _, cl := newCluster(t, 1, server.Config{Workers: 1, SimulateLatency: 200 * time.Millisecond}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	c.jobs.SetMax(3)

	var finished []string
	for i := int64(0); i < 3; i++ {
		job, err := cl.Analyze(ctx, streamReq(3000+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Wait(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
		finished = append(finished, job.ID)
	}

	// The fit and its three training children join three terminal jobs:
	// each registration past the cap drops the oldest terminal one.
	fit, err := cl.Fit(ctx, fig2FitReq())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{fit.ID, fit.ID + "-t0", fit.ID + "-t1", fit.ID + "-t2"}
	waitFor(t, 10*time.Second, "training jobs to register", func() bool {
		list, err := cl.Jobs(ctx, "")
		return err == nil && len(list) == len(want) && list[len(want)-1].ID == want[len(want)-1]
	})
	list, err := cl.Jobs(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range list {
		if j.ID != want[i] {
			t.Fatalf("registry holds %s at %d, want %s", j.ID, i, want[i])
		}
	}
	for _, id := range finished {
		_, err := cl.Job(ctx, id)
		var apiErr *client.Error
		if !errors.As(err, &apiErr) || apiErr.Code != client.CodeNotFound {
			t.Errorf("pruned job %s: %v, want not_found", id, err)
		}
	}
	done, err := cl.Wait(ctx, fit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobDone {
		t.Fatalf("fit: %s (%s)", done.Status, done.Error)
	}
}

// TestCoordinatorFitCancelCancelsTraining: cancelling a fit in its
// training phase cancels its live training jobs, and the fit ends
// canceled at once instead of waiting out the training runs.
func TestCoordinatorFitCancelCancelsTraining(t *testing.T) {
	const latency = 2 * time.Second
	_, _, cl := newCluster(t, 1, server.Config{Workers: 1, SimulateLatency: latency}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	fit, err := cl.Fit(ctx, fig2FitReq())
	if err != nil {
		t.Fatal(err)
	}
	children := []string{fit.ID + "-t0", fit.ID + "-t1", fit.ID + "-t2"}
	waitFor(t, 10*time.Second, "a training job to run", func() bool {
		for _, id := range children {
			if j, err := cl.Job(ctx, id); err == nil && j.Status == client.JobRunning {
				return true
			}
		}
		return false
	})
	start := time.Now()
	if _, err := cl.Cancel(ctx, fit.ID); err != nil {
		t.Fatal(err)
	}
	done, err := cl.Wait(ctx, fit.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != client.JobCanceled {
		t.Fatalf("fit: %s (%s) after cancel, want canceled", done.Status, done.Error)
	}
	for _, id := range children {
		child, err := cl.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if child.Status != client.JobCanceled {
			t.Errorf("training job %s: %s after its fit was canceled, want canceled", id, child.Status)
		}
	}
	if elapsed := time.Since(start); elapsed >= latency {
		t.Fatalf("the fit and its training jobs ended %s after the cancel: it waited out a %s training run", elapsed, latency)
	}
}
