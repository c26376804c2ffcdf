package server

import (
	"fmt"
	"net/http"

	"reusetool/internal/cache"
	"reusetool/internal/ir"
	"reusetool/internal/lang"
	"reusetool/internal/reusecheck"
	"reusetool/internal/workloads"
	"reusetool/pkg/client"
)

// HandleCheck serves POST /v1/check: the static reuse checker run
// synchronously over one program. Checks need no scheduler, cache or
// other daemon state, so the cluster coordinator mounts this same
// handler and the v1 surface stays uniform across worker and
// coordinator.
func HandleCheck(w http.ResponseWriter, r *http.Request) {
	var req client.CheckRequest
	if !DecodeRequest(w, r, &req) {
		return
	}
	resp, err := runCheckRequest(req)
	if err != nil {
		WriteInvalid(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// runCheckRequest validates a check request and runs the checker. It
// mirrors resolve()'s program/hierarchy/level handling so /v1/check and
// /v1/analyze reject the same inputs the same way.
func runCheckRequest(req client.CheckRequest) (*client.CheckResponse, error) {
	nSources := 0
	if req.Workload != "" {
		nSources++
	}
	if req.Program != "" {
		nSources++
	}
	if nSources != 1 {
		return nil, fmt.Errorf("exactly one of workload or program must be set")
	}

	opts := reusecheck.Options{Params: req.Params}
	var prog *ir.Program
	switch {
	case req.Workload != "":
		p, init, err := workloads.Build(req.Workload)
		if err != nil {
			return nil, err
		}
		prog = p
		opts.AssumeInitialized = init != nil
	case req.Program != "":
		p, _, meta, err := lang.ParseFile("program.loop", req.Program)
		if err != nil {
			return nil, fmt.Errorf("program: %w", err)
		}
		prog = p
		opts.Initialized = meta.Inited
		opts.ParamLines = meta.ParamLines
		opts.File = "program.loop"
	}

	hier, err := cache.ByName(req.Hierarchy)
	if err != nil {
		return nil, err
	}
	opts.Hier = hier

	for name := range req.Params {
		if _, ok := prog.Defaults[name]; !ok {
			return nil, fmt.Errorf("program %s has no parameter %q", prog.Name, name)
		}
	}

	opts.Level = req.Level
	if opts.Level == "" {
		opts.Level = "L2"
	}
	if opts.Hier.Level(opts.Level) == nil {
		return nil, fmt.Errorf("hierarchy %s has no level %q", opts.Hier.Name, opts.Level)
	}

	info, err := prog.Finalize()
	if err != nil {
		return nil, err
	}
	diags := reusecheck.Check(info, opts)
	resp := &client.CheckResponse{
		APIVersion:  client.APIVersion,
		Program:     prog.Name,
		Findings:    reusecheck.Findings(diags),
		Diagnostics: make([]client.CheckDiagnostic, len(diags)),
	}
	for i, d := range diags {
		resp.Diagnostics[i] = client.CheckDiagnostic{
			File:         d.File,
			Line:         d.Line,
			Code:         d.Code,
			Severity:     d.Severity.String(),
			Msg:          d.Msg,
			Hint:         d.Hint,
			MissDelta:    d.MissDelta,
			Level:        d.Level,
			Transform:    d.Transform,
			Legality:     d.Legality,
			LegalityNote: d.LegalityNote,
		}
	}
	return resp, nil
}
