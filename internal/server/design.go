package server

// POST /v1/design: the SKU design-space search served online. The
// server restricts its configured candidate space by the request's
// cpus/max_gpus filters and runs design.Search's steps over it
// (design.NewRun, Run.Evaluate, Run.Rank): every feasible candidate is
// scored on carbon per core, portfolio performance per core, and rack
// density, and the reply is the Pareto frontier — plus, when
// include_paper is set, a verdict for each of the paper's five Table
// IV configurations. Rank audits the frontier (design.CheckFrontier)
// whenever the server or the process has an audit checker.
//
// Buffered responses cache the whole reply under the canonical request
// key and fail atomically on the first evaluation error. The key comes
// from the validated filters alone, so a cached reply is served
// before the candidates are enumerated. Streaming responses (Accept:
// application/x-ndjson or text/event-stream) deliver one record per
// candidate in completion order, each cached individually so repeated
// streams — and buffered requests sharing a candidate — hit warm
// entries; the terminal record carries the frontier as stream
// indices. A candidate point rebuilt from its cached JSON is
// bit-identical to the freshly evaluated one (Go's float64 round-trips
// exactly), so the streamed frontier never depends on cache state. On
// a sharded fleet the whole request forwards to the replica owning its
// key, like the single evaluation endpoints.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

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

// designPlan is a validated design request: the design package's run
// over the filtered space (paper extras last), plus what the
// per-candidate cache keys need.
type designPlan struct {
	run     *design.Run
	dataset string
	ci      units.CarbonIntensity
	popt    design.PerfOptions
}

// designOptions validates a request's dataset, carbon intensity and
// filters into the options of its design run and its whole-request
// cache key. It enumerates no candidates, so a cached reply costs
// none; newDesignPlan finishes the validation on a miss.
func (s *Server) designOptions(req api.DesignRequest) (design.Options, string, error) {
	d, err := s.lookupDataset(req.Dataset)
	if err != nil {
		return design.Options{}, "", err
	}
	ci, err := normalizeCI(req.CI, d)
	if err != nil {
		return design.Options{}, "", err
	}
	// Bound the intensity well below float overflow: an absurd CI would
	// push every candidate's operational carbon to +Inf, which both
	// breaks the carbon model's own part-sum invariant and leaves the
	// frontier with nothing finite to keep. Real grids sit under 2.
	if float64(ci) > maxDesignCI {
		return design.Options{}, "", fmt.Errorf("%w: carbon intensity %v exceeds the evaluable bound of %v kgCO2e/kWh",
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
				return design.Options{}, "", fmt.Errorf("%w: cpu %q is not in the design space", errBadRequest, name)
			}
		}
		sp.CPUs = cpus
	}
	if req.MaxGPUs < 0 {
		return design.Options{}, "", fmt.Errorf("%w: negative max_gpus %d", errBadRequest, req.MaxGPUs)
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

	opt := design.Options{Space: sp, Constraints: design.DefaultConstraints(), Dataset: d.name,
		CI: ci, Perf: s.designPerf(), Epsilon: design.DefaultEpsilon()}
	if req.IncludePaper {
		opt.Extra = hw.TableIVConfigs()
	}
	if s.cfg.Audit != nil {
		opt.Audit = s.cfg.Audit
	}
	// The filtered space stands for the cpus and max_gpus filters, so
	// requests that select the same candidates share one entry. The key
	// fixes every option, so a request whose key is cached passed
	// newDesignPlan's checks when its reply was computed.
	key := cacheKey("design", d.name, fmtCI(ci), strconv.FormatBool(req.IncludePaper),
		fmt.Sprintf("%#v|%#v", sp, opt.Perf))
	return opt, key, nil
}

// newDesignPlan enumerates and rack-checks the candidates of a
// validated request's options.
func (s *Server) newDesignPlan(opt design.Options) (*designPlan, error) {
	// Every server dataset is in the design catalog, so a failure here
	// is a dataset/space mismatch — the requested dataset has no carbon
	// data for a CPU or GPU the space enumerates — which the client
	// chose, not a server fault.
	run, err := design.NewRun(opt)
	if err != nil {
		return nil, fmt.Errorf("%w: design space is not evaluable under dataset %q: %v",
			errBadRequest, opt.Dataset, err)
	}
	if len(run.SKUs) == 0 {
		return nil, fmt.Errorf("%w: the requested design space has no feasible candidates", errBadRequest)
	}
	if len(run.SKUs) > s.cfg.MaxDesignCandidates {
		return nil, &codedError{code: api.CodeBadInput, limit: s.cfg.MaxDesignCandidates,
			err: fmt.Errorf("%w: design space of %d candidates exceeds the limit of %d (GET /v1/limits)",
				errBadRequest, len(run.SKUs), s.cfg.MaxDesignCandidates)}
	}
	return &designPlan{run: run, dataset: opt.Dataset, ci: opt.CI, popt: opt.Perf}, nil
}

// pointKey is one candidate's cache key: a candidate name encodes its
// full design tuple, so (dataset, CI, name, protocol) pins the value.
func (p *designPlan) pointKey(i int) string {
	return cacheKey("designpt", p.dataset, fmtCI(p.ci), p.run.SKUs[i].Name,
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

func designVerdictOf(v design.Verdict) api.DesignVerdict {
	return api.DesignVerdict{Point: designPointOf(v.Point), OnFrontier: v.OnFrontier, DominatedBy: v.DominatedBy}
}

// designResponse maps a ranked search to the buffered wire reply.
func designResponse(res design.Result) api.DesignResponse {
	resp := api.DesignResponse{Dataset: res.Dataset, CI: res.CI, Candidates: res.Candidates}
	for _, p := range res.Frontier {
		resp.Frontier = append(resp.Frontier, designPointOf(p))
	}
	for _, v := range res.Verdicts {
		resp.Verdicts = append(resp.Verdicts, designVerdictOf(v))
	}
	return resp
}

// respond evaluates the whole plan and renders the buffered reply.
func (p *designPlan) respond(ctx context.Context, workers int) ([]byte, error) {
	pts, err := engine.Collect(engine.Map(ctx, workers, len(p.run.SKUs), p.run.Evaluate))
	if err != nil {
		return nil, err
	}
	res := p.run.Rank(ctx, pts, nil)
	// The frontier rejects non-finite objectives, and an overflowing
	// carbon intensity overflows every candidate alike — an empty
	// frontier therefore means the request's inputs, not the server,
	// produced no usable objective values.
	if len(res.Frontier) == 0 {
		return nil, fmt.Errorf("%w: no candidate evaluated to finite objectives at carbon intensity %s",
			errBadRequest, fmtCI(p.ci))
	}
	return marshalBody(designResponse(res))
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
	opt, key, err := s.designOptions(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	mode := streamMode(r)
	if mode == "" && s.ownsKey(r, key) {
		if out, ok := s.cached(key); ok {
			s.writeComputed(w, out, true)
			return
		}
	}
	plan, err := s.newDesignPlan(opt)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if s.maybeForward(w, r, key, body) {
		return
	}
	if mode != "" {
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
// cache — then the frontier summary. Each evaluated candidate's point
// is rebuilt from its cached JSON, whose float round-trip is exact, so
// Rank sees the same points the buffered reply does.
func (s *Server) streamDesign(w http.ResponseWriter, r *http.Request, plan *designPlan, mode string) {
	n := len(plan.run.SKUs)
	pts := make([]design.Point, n)
	evaluated := make([]bool, n)
	s.stream(w, r, mode, n,
		func(ctx context.Context, i int) (api.BatchResult, error) {
			body, cached, err := s.compute(ctx, plan.pointKey(i), func() ([]byte, error) {
				pt, err := plan.run.Evaluate(ctx, i)
				if err != nil {
					return nil, err
				}
				return marshalBody(designPointOf(pt))
			})
			res := itemResult(body, cached, err)
			var dp api.DesignPoint
			if res.Error == nil && json.Unmarshal(res.OK, &dp) == nil {
				pts[i] = design.Point{SKU: plan.run.SKUs[i], Obj: design.Objectives{
					CarbonPerCore: dp.CarbonPerCore, PerfPerCore: dp.PerfPerCore, CoresPerRack: dp.CoresPerRack}}
				evaluated[i] = true
			}
			return res, nil
		},
		func(ctx context.Context, errs int) any {
			// The frontier over every candidate that evaluated; failed
			// points are reported in-band above and simply absent here.
			res := plan.run.Rank(ctx, pts, evaluated)
			index := make(map[string]int, n)
			for i, sku := range plan.run.SKUs {
				if _, dup := index[sku.Name]; !dup {
					index[sku.Name] = i
				}
			}
			done := api.DesignDone{Done: true, Items: n, Errors: errs}
			for _, fp := range res.Frontier {
				done.Frontier = append(done.Frontier, index[fp.SKU.Name])
			}
			for _, v := range res.Verdicts {
				done.Verdicts = append(done.Verdicts, designVerdictOf(v))
			}
			return done
		})
}
