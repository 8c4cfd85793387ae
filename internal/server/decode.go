package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/fault"
	"repro/internal/metalog"
	"repro/internal/vadalog"
)

// apiError is the typed error every endpoint returns to clients: an HTTP
// status plus a stable machine-readable code. The JSON shape is
//
//	{"error": {"code": "saturated", "message": "..."}}
//
// and every non-2xx response of the server — including injected faults and
// contained panics — carries it, so clients never have to parse free text.
type apiError struct {
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *apiError) Error() string { return e.Code + ": " + e.Message }

func errBadRequest(format string, args ...any) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

func errTooLarge(limit int64) *apiError {
	return &apiError{Status: http.StatusRequestEntityTooLarge, Code: "too_large",
		Message: fmt.Sprintf("request body exceeds %d bytes", limit)}
}

func errMethod(want string) *apiError {
	return &apiError{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
		Message: "use " + want}
}

func errSaturated() *apiError {
	return &apiError{Status: http.StatusTooManyRequests, Code: "saturated",
		Message: "all query workers busy; retry with backoff"}
}

func writeAPIError(w http.ResponseWriter, e *apiError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.Status)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // client gone
		Error *apiError `json:"error"`
	}{e})
}

// queryRequest is the POST /query payload.
type queryRequest struct {
	// Query is the MetaLog body pattern to evaluate (docs/METALOG.md).
	Query string `json:"query"`
	// Limit caps the number of rows returned; 0 returns all.
	Limit int `json:"limit"`

	pattern metalog.Pattern // Query, parsed by the decoder
}

// explainRequest is the POST /explain payload: the pattern to plan, and
// optionally Run to execute it and report actual rows next to the estimate.
type explainRequest struct {
	Query string `json:"query"`
	Run   bool   `json:"run"`

	pattern metalog.Pattern // Query, parsed by the decoder
}

// reloadRequest is the POST /reload payload; an empty body (or empty path)
// reloads the server's configured source.
type reloadRequest struct {
	Path string `json:"path"`
}

// validateRequest is the POST /validate payload; an empty strategy uses the
// server's configured one.
type validateRequest struct {
	Strategy string `json:"strategy"`
}

// maxQueryLen bounds the pattern text independently of the body cap: a
// megabyte of conjuncts is an attack, not a query.
const maxQueryLen = 1 << 16

// parsePattern is the one place a request's pattern text is checked and
// parsed: blank and oversized texts are refused, a syntax error comes back
// as bad_query rather than as an evaluation failure, and the handlers
// evaluate and key their caches by the value returned.
func parsePattern(text string) (metalog.Pattern, *apiError) {
	text = strings.TrimSpace(text)
	if text == "" {
		return metalog.Pattern{}, errBadRequest("empty query")
	}
	if len(text) > maxQueryLen {
		return metalog.Pattern{}, errTooLarge(maxQueryLen)
	}
	pat, err := metalog.ParsePattern(text)
	if err != nil {
		return pat, &apiError{Status: http.StatusBadRequest, Code: "bad_query", Message: err.Error()}
	}
	return pat, nil
}

// decodeQueryRequest parses and validates a /query body. It is the surface
// FuzzDecodeQuery exercises: any input must produce either a request or a
// typed error, never a panic.
func decodeQueryRequest(body []byte) (*queryRequest, *apiError) {
	req := &queryRequest{}
	if err := strictUnmarshal(body, req); err != nil {
		return nil, errBadRequest("decoding query request: %v", err)
	}
	if req.Limit < 0 {
		return nil, errBadRequest("negative limit %d", req.Limit)
	}
	var aerr *apiError
	if req.pattern, aerr = parsePattern(req.Query); aerr != nil {
		return nil, aerr
	}
	return req, nil
}

// decodeExplainRequest parses and validates an /explain body, with the same
// guarantees as decodeQueryRequest (FuzzExplain exercises it).
func decodeExplainRequest(body []byte) (*explainRequest, *apiError) {
	req := &explainRequest{}
	if err := strictUnmarshal(body, req); err != nil {
		return nil, errBadRequest("decoding explain request: %v", err)
	}
	var aerr *apiError
	if req.pattern, aerr = parsePattern(req.Query); aerr != nil {
		return nil, aerr
	}
	return req, nil
}

// decodeOptional returns the decoder of an endpoint whose body may be
// empty: /reload (the configured source) and /validate (the configured
// strategy).
func decodeOptional[T any](endpoint string) func([]byte) (*T, *apiError) {
	return func(body []byte) (*T, *apiError) {
		req := new(T)
		if len(bytes.TrimSpace(body)) == 0 {
			return req, nil
		}
		if err := strictUnmarshal(body, req); err != nil {
			return nil, errBadRequest("decoding %s request: %v", endpoint, err)
		}
		return req, nil
	}
}

var (
	decodeReloadRequest   = decodeOptional[reloadRequest]("reload")
	decodeValidateRequest = decodeOptional[validateRequest]("validate")
)

// strictUnmarshal decodes JSON rejecting unknown fields and trailing data,
// so typos in request payloads fail loudly instead of being ignored.
func strictUnmarshal(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// mapError classifies a failure into the typed error space: deadline and
// cancellation map onto their own codes (the PR 2 sentinels), injected
// faults and contained panics onto theirs, a batch the overlay refused onto
// a 400, and everything else onto the caller's code — eval_failed for an
// evaluation, load_failed, mutate_failed and compact_failed for the swaps.
func mapError(err error, code string) *apiError {
	var pe *fault.PanicError
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, vadalog.ErrTimeout):
		status, code = http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, vadalog.ErrCanceled):
		// The client went away; the status is moot but keep it typed.
		status, code = http.StatusRequestTimeout, "canceled"
	case errors.As(err, &pe):
		code = "panic"
	case errors.Is(err, fault.ErrInjected):
		code = "injected"
	case errors.Is(err, ErrBadMutation):
		status, code = http.StatusBadRequest, "bad_mutation"
	}
	return &apiError{Status: status, Code: code, Message: err.Error()}
}

func mapEvalError(err error) *apiError { return mapError(err, "eval_failed") }
