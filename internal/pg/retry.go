package pg

import (
	"io"

	"repro/internal/fault"
)

// Retryable reader: the server's JSON graph load re-opens and re-reads its
// source on transient failure instead of failing over a flaky filesystem or
// network mount. The open callback is invoked once per attempt, so each
// retry reads a fresh stream from the start; retry counts surface through
// the internal/obs expvar counters.

// ReadJSONRetry reads a JSON graph with retries under the given policy.
func ReadJSONRetry(open func() (io.ReadCloser, error), p fault.RetryPolicy) (*Graph, error) {
	var g *Graph
	err := p.Do("pg/read-json", func() error {
		r, err := open()
		if err != nil {
			return err
		}
		defer r.Close()
		g, err = ReadJSON(r)
		return err
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}
