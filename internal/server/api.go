package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"reusetool/internal/predict"
	"reusetool/pkg/client"
)

// The v1 rules both roles apply: a worker's handlers and the cluster
// coordinator's call these, so the two cannot answer the same bad
// request differently.

// maxBodyBytes caps a v1 request body on every POST route.
const maxBodyBytes int64 = 16 << 20

// WriteJSON writes v as indented JSON with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteJob writes a job document: exactly the bytes WriteJSON writes
// for doc, with a Content-Length. WriteJSON's indent pass re-scans
// every byte of the marshalled document, and nearly all of them sit in
// the report and result strings, inside which indenting changes
// nothing. So only the head (every field but those two) is indented;
// the report is appended as json.Marshal escapes it, and the result as
// the standard base64 string Marshal makes of a []byte. Report and
// Result are client.Job's last two fields, so nothing follows them.
func WriteJob(w http.ResponseWriter, status int, doc *client.Job) {
	const (
		reportKey = ",\n  \"report\": "
		resultKey = ",\n  \"result\": \""
		tail      = "\n}\n"
	)
	head := *doc
	head.Report, head.Result = "", nil
	// Neither can fail: the head holds strings, ints and a bool, and
	// the report is one string.
	hb, _ := json.MarshalIndent(&head, "", "  ")
	hb = hb[:len(hb)-len("\n}")] // id, status, key and cache_hit are always there
	var report []byte
	if doc.Report != "" {
		report, _ = json.Marshal(doc.Report)
	}
	n := len(hb) + len(reportKey) + len(report) + len(resultKey) +
		base64.StdEncoding.EncodedLen(len(doc.Result)) + len(`"`) + len(tail)
	body := append(make([]byte, 0, n), hb...)
	if report != nil {
		body = append(append(body, reportKey...), report...)
	}
	if len(doc.Result) > 0 {
		body = append(base64.StdEncoding.AppendEncode(append(body, resultKey...), doc.Result), '"')
	}
	body = append(body, tail...)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// WriteError emits the structured v1 error envelope:
// {"api_version":"v1","error":{"code":"...","message":"..."}}.
func WriteError(w http.ResponseWriter, status int, code client.ErrorCode, format string, args ...any) {
	WriteJSON(w, status, client.ErrorEnvelope{
		APIVersion: client.APIVersion,
		Err:        client.ErrorBody{Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// WriteInvalid answers a request that failed validation with 400:
// unsound_training_input when err wraps predict.ErrUnsoundTraining,
// invalid_request otherwise.
func WriteInvalid(w http.ResponseWriter, err error) {
	code := client.CodeInvalidRequest
	if errors.Is(err, predict.ErrUnsoundTraining) {
		code = client.CodeUnsoundTrainingInput
	}
	WriteError(w, http.StatusBadRequest, code, "%v", err)
}

// DecodeRequest applies the v1 intake rules to a POST body and decodes
// it into v: a body over 16 MiB is refused with 413 too_large, and a
// body that does not decode — unknown fields included — with 400
// invalid_request. It reports false once it has written the refusal.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "read body: %v", err)
		return false
	}
	if int64(len(body)) > maxBodyBytes {
		WriteError(w, http.StatusRequestEntityTooLarge, client.CodeTooLarge, "body exceeds %d bytes", maxBodyBytes)
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "decode request: %v", err)
		return false
	}
	return true
}

// WriteHealth answers GET /v1/health (and /healthz) with h: status "ok"
// and 200, or "draining" and 503 once the role has begun to drain.
func WriteHealth(w http.ResponseWriter, draining bool, h client.Health) {
	h.APIVersion, h.Status = client.APIVersion, "ok"
	code := http.StatusOK
	if draining {
		h.Status, code = "draining", http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// StateFilter parses GET /v1/jobs' optional ?state= filter. An unknown
// state is refused with 400, and StateFilter reports false once it has
// written the refusal.
func StateFilter(w http.ResponseWriter, r *http.Request) (client.JobStatus, bool) {
	state := client.JobStatus(r.URL.Query().Get("state"))
	switch state {
	case "", client.JobQueued, client.JobRunning, client.JobDone, client.JobFailed, client.JobCanceled:
		return state, true
	}
	WriteError(w, http.StatusBadRequest, client.CodeInvalidRequest, "unknown state %q", state)
	return "", false
}
