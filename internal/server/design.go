package server

// POST /v1/design: the SKU design-space search served online. The
// server enumerates its configured candidate space (restricted by the
// request's cpus/max_gpus filters), scores every feasible candidate on
// carbon per core, portfolio performance per core, and rack density,
// and answers with the Pareto frontier — plus, when include_paper is
// set, a verdict for each of the paper's five Table IV configurations.
//
// Buffered responses cache the whole reply under the canonical request
// key and fail atomically on the first evaluation error. Streaming
// responses (Accept: application/x-ndjson or text/event-stream)
// deliver one record per candidate in completion order, each cached
// individually so repeated streams — and buffered requests sharing a
// candidate — hit warm entries; the terminal record carries the
// frontier as stream indices. A candidate point rebuilt from its cached
// JSON is bit-identical to the freshly evaluated one (Go's float64
// round-trips exactly), so the streamed frontier never depends on
// cache state. On a sharded fleet the whole request forwards to the
// replica owning its key, like the single evaluation endpoints.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/server/api"
	"github.com/greensku/gsf/internal/units"
)

// maxDesignCI bounds a design request's carbon intensity in
// kgCO2e/kWh: three orders of magnitude above any real grid, yet small
// enough that no candidate's lifetime operational carbon can overflow.
const maxDesignCI = 1e3

// designSpace resolves the configured candidate space.
func (s *Server) designSpace() design.Space {
	if s.cfg.DesignSpace != nil {
		return *s.cfg.DesignSpace
	}
	return design.DefaultOptions().Space
}

// designPerf resolves the configured performance protocol.
func (s *Server) designPerf() design.PerfOptions {
	if s.cfg.DesignPerf != nil {
		return *s.cfg.DesignPerf
	}
	return design.DefaultPerfOptions()
}

// designPlan is a validated design request: the enumerated candidates
// (paper extras last) and the shared evaluator whose profile memo makes
// the fan-out cheap — a space has far fewer distinct performance
// profiles than candidates.
type designPlan struct {
	d      *dataset
	ci     units.CarbonIntensity
	popt   design.PerfOptions
	skus   []hw.SKU
	extras int
	ev     *design.Evaluator
}

// newDesignPlan validates a request into its candidate list, shared
// evaluator, and whole-request cache key.
func (s *Server) newDesignPlan(req api.DesignRequest) (*designPlan, string, error) {
	d, err := s.lookupDataset(req.Dataset)
	if err != nil {
		return nil, "", err
	}
	ci, err := normalizeCI(req.CI, d)
	if err != nil {
		return nil, "", err
	}
	// Bound the intensity well below float overflow: an absurd CI would
	// push every candidate's operational carbon to +Inf, which both
	// breaks the carbon model's own part-sum invariant and leaves the
	// frontier with nothing finite to keep. Real grids sit under 2.
	if float64(ci) > maxDesignCI {
		return nil, "", fmt.Errorf("%w: carbon intensity %v exceeds the evaluable bound of %v kgCO2e/kWh",
			errBadRequest, float64(ci), maxDesignCI)
	}
	sp := s.designSpace()
	if len(req.CPUs) > 0 {
		want := map[string]bool{}
		for _, name := range req.CPUs {
			want[name] = true
		}
		var cpus []hw.CPUSpec
		for _, c := range sp.CPUs {
			if want[c.Name] {
				cpus = append(cpus, c)
				delete(want, c.Name)
			}
		}
		// Report the first unknown name in request order, so the error
		// does not depend on map iteration order.
		for _, name := range req.CPUs {
			if want[name] {
				return nil, "", fmt.Errorf("%w: cpu %q is not in the design space", errBadRequest, name)
			}
		}
		sp.CPUs = cpus
	}
	if req.MaxGPUs < 0 {
		return nil, "", fmt.Errorf("%w: negative max_gpus %d", errBadRequest, req.MaxGPUs)
	}
	var gpus []design.GPUOption
	for _, g := range sp.GPUOptions {
		if g.Count <= req.MaxGPUs {
			gpus = append(gpus, g)
		}
	}
	if len(gpus) == 0 {
		gpus = []design.GPUOption{{}}
	}
	sp.GPUOptions = gpus

	data, ok := carbondata.Datasets()[d.name]
	if !ok {
		return nil, "", fmt.Errorf("server: dataset %q missing from the design catalog", d.name)
	}
	m, err := carbon.New(data)
	if err != nil {
		return nil, "", err
	}
	// A failure here is a dataset/space mismatch — the requested dataset
	// has no carbon data for a CPU or GPU the space enumerates — which
	// the client chose, not a server fault.
	skus, err := design.Candidates(sp, design.DefaultConstraints(), m)
	if err != nil {
		return nil, "", fmt.Errorf("%w: design space is not evaluable under dataset %q: %v",
			errBadRequest, d.name, err)
	}
	extras := 0
	if req.IncludePaper {
		paper := hw.TableIVConfigs()
		skus = append(skus, paper...)
		extras = len(paper)
	}
	if len(skus) == 0 {
		return nil, "", fmt.Errorf("%w: the requested design space has no feasible candidates", errBadRequest)
	}
	if len(skus) > s.cfg.MaxDesignCandidates {
		return nil, "", &codedError{code: api.CodeBadInput, limit: s.cfg.MaxDesignCandidates,
			err: fmt.Errorf("%w: design space of %d candidates exceeds the limit of %d (GET /v1/limits)",
				errBadRequest, len(skus), s.cfg.MaxDesignCandidates)}
	}
	popt := s.designPerf()
	plan := &designPlan{d: d, ci: ci, popt: popt, skus: skus, extras: extras,
		ev: design.NewEvaluator(m, ci, popt)}
	// The filtered space stands for the cpus and max_gpus filters, so
	// requests that select the same candidates share one entry.
	key := cacheKey("design", d.name, fmtCI(ci), strconv.FormatBool(req.IncludePaper),
		fmt.Sprintf("%#v|%#v", sp, popt))
	return plan, key, nil
}

// pointKey is one candidate's cache key: a candidate name encodes its
// full design tuple, so (dataset, CI, name, protocol) pins the value.
func (p *designPlan) pointKey(i int) string {
	return cacheKey("designpt", p.d.name, fmtCI(p.ci), p.skus[i].Name,
		fmt.Sprintf("%#v", p.popt))
}

func designPointOf(p design.Point) api.DesignPoint {
	return api.DesignPoint{
		SKU:           p.SKU.Name,
		CPU:           p.SKU.CPU.Name,
		Cores:         p.SKU.Cores(),
		CarbonPerCore: p.Obj.CarbonPerCore,
		PerfPerCore:   p.Obj.PerfPerCore,
		CoresPerRack:  p.Obj.CoresPerRack,
	}
}

// frontierPoint rebuilds the dominance-core view of a wire point. The
// frontier only reads the objectives and the name tie-break, and the
// JSON float round-trip is exact, so this is bit-equivalent to the
// evaluated point.
func frontierPoint(p api.DesignPoint) design.Point {
	return design.Point{SKU: hw.SKU{Name: p.SKU}, Obj: design.Objectives{
		CarbonPerCore: p.CarbonPerCore,
		PerfPerCore:   p.PerfPerCore,
		CoresPerRack:  p.CoresPerRack,
	}}
}

// respond evaluates the whole plan and renders the buffered reply.
func (p *designPlan) respond(ctx context.Context, workers int) ([]byte, error) {
	pts, err := engine.Collect(engine.Map(ctx, workers, len(p.skus),
		func(ctx context.Context, i int) (design.Point, error) {
			return p.ev.Evaluate(ctx, p.skus[i])
		}))
	if err != nil {
		return nil, err
	}
	f := design.NewFrontier(design.DefaultEpsilon())
	for _, pt := range pts {
		f.Insert(pt)
	}
	// The frontier rejects non-finite objectives, and an overflowing
	// carbon intensity overflows every candidate alike — an empty
	// frontier therefore means the request's inputs, not the server,
	// produced no usable objective values.
	if f.Len() == 0 {
		return nil, fmt.Errorf("%w: no candidate evaluated to finite objectives at carbon intensity %s",
			errBadRequest, fmtCI(p.ci))
	}
	resp := api.DesignResponse{Dataset: p.d.name, CI: p.ci, Candidates: len(p.skus)}
	for _, fp := range f.Points() {
		resp.Frontier = append(resp.Frontier, designPointOf(fp))
	}
	for _, pt := range pts[len(pts)-p.extras:] {
		v := api.DesignVerdict{Point: designPointOf(pt), DominatedBy: f.DominatedBy(pt)}
		v.OnFrontier = v.DominatedBy == ""
		resp.Verdicts = append(resp.Verdicts, v)
	}
	return marshalBody(resp)
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var req api.DesignRequest
	if err := decodeStrict(body, &req); err != nil {
		s.writeError(w, err)
		return
	}
	plan, key, err := s.newDesignPlan(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.maybeForward(w, r, key, body) {
		return
	}
	if mode := streamMode(r); mode != "" {
		s.streamDesign(w, r, plan, mode)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	out, cached, err := s.compute(ctx, key, func() ([]byte, error) {
		// Detached from the requester: a leader's work outlives a
		// disconnecting client, so followers and the cache still get the
		// result.
		cctx, ccancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer ccancel()
		return plan.respond(cctx, s.cfg.Workers)
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeComputed(w, out, cached)
}

// streamDesign serves a validated plan as a stream: one record per
// candidate in completion order — each served through the per-candidate
// cache — then the frontier summary.
func (s *Server) streamDesign(w http.ResponseWriter, r *http.Request, plan *designPlan, mode string) {
	n := len(plan.skus)
	if mode == "sse" {
		w.Header().Set("Content-Type", api.ContentTypeSSE)
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", api.ContentTypeNDJSON)
	}
	w.Header().Set(batchHeader, strconv.Itoa(n))
	if s.ring != nil {
		w.Header().Set(api.HeaderShard, "local")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	errs := 0
	pts := make([]api.DesignPoint, n)
	evaluated := make([]bool, n)
	engine.Stream(ctx, s.cfg.Workers, n,
		func(ctx context.Context, i int) (api.BatchResult, error) {
			body, cached, err := s.compute(ctx, plan.pointKey(i), func() ([]byte, error) {
				pt, err := plan.ev.Evaluate(ctx, plan.skus[i])
				if err != nil {
					return nil, err
				}
				return marshalBody(designPointOf(pt))
			})
			return itemResult(body, cached, err), nil
		},
		func(i int, res engine.Result[api.BatchResult]) {
			out := res.Value
			if res.Err != nil {
				out = itemResult(nil, false, res.Err)
			}
			if out.Error != nil {
				errs++
			} else if json.Unmarshal(out.OK, &pts[i]) == nil {
				evaluated[i] = true
			}
			s.metrics.StreamedResults.inc()
			writeStreamRecord(w, flusher, mode, "result", api.BatchStreamItem{
				Index: i, OK: out.OK, Cached: out.Cached,
				Error: out.Error, Status: out.Status,
			})
		})

	// The frontier over every candidate that evaluated; failed points
	// are reported in-band above and simply absent here.
	f := design.NewFrontier(design.DefaultEpsilon())
	for i := range pts {
		if evaluated[i] {
			f.Insert(frontierPoint(pts[i]))
		}
	}
	index := make(map[string]int, n)
	for i, sku := range plan.skus {
		if _, dup := index[sku.Name]; !dup {
			index[sku.Name] = i
		}
	}
	done := api.DesignDone{Done: true, Items: n, Errors: errs}
	for _, fp := range f.Points() {
		done.Frontier = append(done.Frontier, index[fp.SKU.Name])
	}
	for i := n - plan.extras; i < n; i++ {
		if !evaluated[i] {
			continue
		}
		v := api.DesignVerdict{Point: pts[i], DominatedBy: f.DominatedBy(frontierPoint(pts[i]))}
		v.OnFrontier = v.DominatedBy == ""
		done.Verdicts = append(done.Verdicts, v)
	}
	writeStreamRecord(w, flusher, mode, "done", done)
}
