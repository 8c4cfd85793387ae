package server

import (
	"net/http"

	"repro/internal/metalog"
	"repro/internal/obs"
	"repro/internal/plan"
)

// The serving side of the cost-based query planner (internal/plan,
// DESIGN.md §15): compiled queries — translated and planned against the
// generation's statistics catalog — are cached in the generation's plan LRU
// under the pattern's canonical key, so the per-request work of the hot path
// is the engine run alone. Prepared queries are immutable and safe for
// concurrent use, so hits share one entry across requests.

// preparedFor returns the compiled query for a pattern under a snapshot,
// consulting its plan cache. The second return reports the cache disposition
// ("hit" or "miss"). With the planner off a query is compiled per request
// without a statistics catalog, so evaluation is written-order and nothing
// is cached or counted.
func (s *Server) preparedFor(sn *snapshot, pat metalog.Pattern) (*metalog.Prepared, string, error) {
	if s.cfg.PlannerOff {
		p, err := metalog.PrepareBody(sn.cat, pat.Body, nil)
		return p, "", err
	}
	if p, ok := sn.plans.get(pat.Key); ok {
		counters.PlanCacheHits.Add(1)
		return p, "hit", nil
	}
	counters.PlanCacheMisses.Add(1)
	p, err := metalog.PrepareBody(sn.cat, pat.Body, sn.pstats)
	if err != nil {
		return nil, "miss", err
	}
	sn.plans.put(pat.Key, p, s.cfg.PlanCacheSize)
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

func (s *Server) plannerStats(sn *snapshot) *plannerSection {
	return &plannerSection{
		Enabled:       !s.cfg.PlannerOff,
		CacheCapacity: s.cfg.PlanCacheSize,
		CacheEntries:  sn.plans.len(),
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
	req, aerr := request(s, r, decodeExplainRequest)
	if aerr != nil {
		return nil, aerr
	}
	sn := s.current()
	if s.cfg.PlannerOff {
		return reply(explainResponse{
			Generation: sn.gen, Planner: "off",
			Fallback: "planner disabled by configuration",
		}, sn.gen)
	}
	prep, disposition, err := s.preparedFor(sn, req.pattern)
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
