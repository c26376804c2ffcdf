package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// Cross-input scaling models on the cluster: POST /v1/fit schedules the
// training analyses as related jobs across the ring (each lands on its
// own cache-key owner, warming the fleet), collects their cache entries
// onto the model key's ring owner, then places the fit job there — so
// the fitting worker serves every training input from its warm cache.
// POST /v1/predict proxies synchronously to the model's ring owner.

func (c *Coordinator) handleFit(w http.ResponseWriter, r *http.Request) {
	var req client.FitRequest
	if !server.DecodeRequest(w, r, &req) {
		return
	}
	// The model key is the shard address AND the early soundness gate:
	// unsound sampling never reaches a worker.
	key, err := server.ModelKeyFor(req)
	if err != nil {
		server.WriteInvalid(w, err)
		return
	}
	trainReqs, err := server.TrainingRequests(req)
	if err != nil {
		server.WriteInvalid(w, err)
		return
	}
	j := c.admit(w, key)
	if j == nil {
		return
	}
	c.metrics.FitsProxied.Add(1)
	go c.watchFit(j, &req, trainReqs)
	doc := j.Doc()
	server.WriteJob(w, http.StatusAccepted, &doc)
}

// watchFit drives one fit end to end: schedule the training analyses as
// related jobs across the ring, gather their cache entries onto the fit
// owner, then hand over to the ordinary watch loop to place and track
// the fit job itself. A cancel during training ends the fit at once;
// the training jobs, whose contexts derive from the fit's, are canceled
// with it. Like watch, it roots its own contexts — the fit must outlive
// the submission request.
//
//reuse:ctx-root
func (c *Coordinator) watchFit(j *server.Job, req *client.FitRequest, trainReqs []client.AnalyzeRequest) {
	children := make([]*server.Job, 0, len(trainReqs))
	for i, tr := range trainReqs {
		key, err := server.CacheKeyFor(tr)
		if err != nil {
			j.Finish(client.JobFailed, fmt.Sprintf("training run %d: %v", i, err), nil)
			c.watchers.Done()
			return
		}
		child := c.jobs.AddChild(j, i, key)
		c.metrics.TrainingJobsScheduled.Add(1)
		children = append(children, child)
		c.watchers.Add(1)
		go c.watch(child, tr, nil)
	}

	for _, child := range children {
		select {
		case <-child.Done():
		case <-j.Context().Done():
			j.Finish(client.JobCanceled, "", nil)
			c.watchers.Done()
			return
		}
	}
	for i, child := range children {
		if doc := child.Doc(); doc.Status != client.JobDone {
			j.Finish(client.JobFailed,
				fmt.Sprintf("training run %d (%s): %s: %s", i, child.ID(), doc.Status, doc.Error), nil)
			c.watchers.Done()
			return
		}
	}
	c.seedFitOwner(j.Doc().Key, children)

	// The training inputs are in place; place and track the fit job like
	// any other. watch owns watchers.Done.
	c.watch(j, client.AnalyzeRequest{}, req)
}

// seedFitOwner copies each training run's cache entry from the node
// that ran it to the model key's ring owner, so the fit job — routed by
// that same key — finds every training input warm. The copies go
// through the workers' peer-cache client, which verifies each entry's
// fingerprint before the PUT. Best-effort: a failed copy only costs the
// owner a re-run of one small input. Runs on the watcher goroutine, so
// its contexts are rooted here.
//
//reuse:ctx-root
func (c *Coordinator) seedFitOwner(modelKey string, children []*server.Job) {
	owners := c.ring.Successors(modelKey, 1)
	if len(owners) == 0 {
		return
	}
	owner, ok := c.healthyNode(owners[0])
	if !ok {
		return
	}
	for _, child := range children {
		doc := child.Doc()
		if doc.Node == owner.url {
			continue
		}
		from, ok := c.healthyNode(doc.Node)
		if !ok {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if entry, ok := from.cache.Get(ctx, doc.Key); ok {
			_ = owner.cache.Put(ctx, entry)
		}
		cancel()
	}
}

// handlePredict proxies a what-if query synchronously to the model
// key's ring owner, walking successors on transport failure. The reply
// is the worker's own — microsecond-latency from its cached model.
func (c *Coordinator) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req client.PredictRequest
	if !server.DecodeRequest(w, r, &req) {
		return
	}
	key := req.Model
	if key == "" {
		var err error
		if key, err = server.ModelKeyFor(server.FitSpec(req)); err != nil {
			server.WriteInvalid(w, err)
			return
		}
	}

	c.metrics.PredictsProxied.Add(1)
	var lastErr error
	for _, url := range c.ring.Successors(key, len(c.cfg.Peers)) {
		ns, ok := c.healthyNode(url)
		if !ok {
			continue
		}
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		resp, err := ns.cli.Predict(ctx, req)
		cancel()
		if err == nil {
			server.WriteJSON(w, http.StatusOK, resp)
			return
		}
		lastErr = err
		var apiErr *client.Error
		if errors.As(err, &apiErr) && !apiErr.Temporary() {
			// The worker answered conclusively (no model, bad binding):
			// forward its verdict rather than asking another node.
			server.WriteError(w, apiErr.Status, apiErr.Code, "%s", apiErr.Message)
			return
		}
		c.noteDead(ns, true)
	}
	if lastErr != nil {
		server.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, "no worker answered: %v", lastErr)
		return
	}
	server.WriteError(w, http.StatusServiceUnavailable, client.CodeUnavailable, "no healthy workers")
}
