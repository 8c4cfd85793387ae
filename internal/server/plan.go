package server

import (
	"net/http"

	"repro/internal/metalog"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The serving side of the cost-based query planner (internal/plan,
// DESIGN.md §15): compiled queries — parsed, translated and planned against
// the generation's statistics catalog — are cached per (generation,
// canonical pattern), so the per-request work of the hot path is the engine
// run alone. A snapshot swap invalidates exactly like the result cache: the
// key carries the generation, and Server.install empties the LRU.

// planKey identifies one compiled plan in the plan LRU. Prepared queries are
// immutable and safe for concurrent use, so hits share one entry across
// requests.
type planKey struct {
	gen   uint64
	query string
}

// preparedFor returns the compiled plan for a pattern under a snapshot,
// consulting the plan cache. The second return reports the cache
// disposition ("hit" or "miss").
func (s *Server) preparedFor(sn *snapshot, query string) (*metalog.Prepared, string, error) {
	key := planKey{gen: sn.gen, query: canonicalQuery(query)}
	if p, ok := s.plans.get(key); ok {
		counters.PlanCacheHits.Add(1)
		return p, "hit", nil
	}
	counters.PlanCacheMisses.Add(1)
	// The catalog clone is private to the Prepared: translation extends it
	// with the query-result layout.
	p, err := metalog.PrepareQuery(sn.cat.Clone(), query, sn.pstats)
	if err != nil {
		return nil, "miss", err
	}
	s.plans.put(key, p)
	return p, "miss", nil
}

// plannerSection is the live planner block of the /stats document: the
// server-side plan-cache counters plus the process-wide obs planner
// counters (planned vs unplanned runs, fallbacks, estimated-vs-actual row
// totals).
type plannerSection struct {
	Enabled       bool  `json:"enabled"`
	CacheCapacity int   `json:"cacheCapacity"`
	CacheEntries  int   `json:"cacheEntries"`
	CacheHits     int64 `json:"cacheHits"`
	CacheMisses   int64 `json:"cacheMisses"`
	PlannedRuns   int64 `json:"plannedRuns"`
	UnplannedRuns int64 `json:"unplannedRuns"`
	Fallbacks     int64 `json:"fallbacks"`
	EstRows       int64 `json:"estRows"`
	ActualRows    int64 `json:"actualRows"`
}

func (s *Server) plannerStats() *plannerSection {
	return &plannerSection{
		Enabled:       !s.cfg.PlannerOff,
		CacheCapacity: s.cfg.PlanCacheSize,
		CacheEntries:  s.plans.len(),
		CacheHits:     counters.PlanCacheHits.Load(),
		CacheMisses:   counters.PlanCacheMisses.Load(),
		PlannedRuns:   obs.Engine.PlannedRuns.Load(),
		UnplannedRuns: obs.Engine.UnplannedRuns.Load(),
		Fallbacks:     obs.Engine.PlanFallbacks.Load(),
		EstRows:       obs.Engine.PlanEstRows.Load(),
		ActualRows:    obs.Engine.PlanActualRows.Load(),
	}
}

// explainResponse is the /explain body: the plan chosen for the pattern
// under the current generation, its cost estimates, and — with "run": true —
// the actual row count next to the estimate.
type explainResponse struct {
	Generation    uint64     `json:"generation"`
	Planner       string     `json:"planner"` // "on" or "off"
	Planned       bool       `json:"planned"`
	Fallback      string     `json:"fallback,omitempty"`
	EstimatedRows float64    `json:"estimatedRows"`
	ActualRows    *int       `json:"actualRows,omitempty"`
	Plan          *plan.Plan `json:"plan,omitempty"`
}

func (s *Server) handleExplain(r *http.Request) (*apiResult, *apiError) {
	body, aerr := readBody(r.Body, s.cfg.MaxBody)
	if aerr != nil {
		return nil, aerr
	}
	req, aerr := decodeExplainRequest(body)
	if aerr != nil {
		return nil, aerr
	}
	sn := s.current()
	if s.cfg.PlannerOff {
		out, aerr := marshalBody(explainResponse{
			Generation: sn.gen, Planner: "off",
			Fallback: "planner disabled by configuration",
		})
		if aerr != nil {
			return nil, aerr
		}
		return &apiResult{body: out, gen: sn.gen}, nil
	}
	prep, disposition, err := s.preparedFor(sn, req.Query)
	if err != nil {
		return nil, mapEvalError(err)
	}
	resp := explainResponse{
		Generation:    sn.gen,
		Planner:       "on",
		Planned:       prep.Planned(),
		EstimatedRows: prep.EstimatedRows(),
		Plan:          prep.Plan(),
	}
	if resp.Plan != nil {
		resp.Fallback = resp.Plan.Fallback
	}
	if req.Run {
		rows, err := s.queryRows(r.Context(), sn, prep)
		if err != nil {
			return nil, mapEvalError(err)
		}
		n := len(rows)
		resp.ActualRows = &n
	}
	out, aerr := marshalBody(resp)
	if aerr != nil {
		return nil, aerr
	}
	return &apiResult{body: out, gen: sn.gen, cache: disposition}, nil
}
