package server

// POST /v1/replay: placement replay with snapshot forking. The request
// names a synthetic workload and a two-pool cluster; the server replays
// the trace through the columnar allocation simulator, checkpoints the
// cluster state at the fork point with the simulator's binary snapshot
// codec, and replays the remaining events once per requested fork with
// a what-if decider restored from that snapshot. The response compares
// the straight run against every fork — the online form of "what would
// the fleet look like if we had adopted differently from hour N on",
// answered without replaying the shared prefix per variant.
//
// Everything is a deterministic function of the request (the trace is
// seeded, the deciders are parameterised, the simulator is
// sequential), so responses cache exactly like the evaluation
// endpoints and forward to the owning replica on a sharded fleet.

import (
	"bytes"
	"fmt"
	"math"
	"strconv"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/server/api"
	"github.com/greensku/gsf/internal/trace"
)

const (
	// maxReplayForks bounds the what-if variants of one request.
	maxReplayForks = 8
	// maxReplayServers bounds each pool. The columnar simulator never
	// materializes servers the trace does not touch, so the bound
	// guards the request's plausibility, not the server's memory.
	maxReplayServers = 1000000
	// maxReplayScale bounds a decider's resource multiplier.
	maxReplayScale = 8.0
)

// replayDecider is the endpoint's parameterised placement policy:
// adopt VMs whose id falls in the first adoptPercent of each hundred,
// scaling adopted requests by scale. Deterministic in its parameters,
// which is what makes replay responses cacheable.
func replayDecider(adoptPercent int, scale float64) alloc.Decider {
	return func(vm trace.VM) alloc.Decision {
		return alloc.Decision{Adopt: vm.ID%100 < adoptPercent, Scale: scale}
	}
}

// replayScale normalises a request scale: zero means unscaled.
func replayScale(scale float64) float64 {
	if scale == 0 {
		return 1
	}
	return scale
}

func checkReplayKnobs(field string, adoptPercent int, scale float64) error {
	if adoptPercent < 0 || adoptPercent > 100 {
		return fmt.Errorf("%w: %s adopt_percent %d out of [0,100]", errBadRequest, field, adoptPercent)
	}
	if s := replayScale(scale); math.IsNaN(s) || s < 1 || s > maxReplayScale {
		return fmt.Errorf("%w: %s scale %v out of [1,%v]", errBadRequest, field, scale, maxReplayScale)
	}
	return nil
}

// replayJob validates a replay request into its cache key and
// computation.
func (s *Server) replayJob(req api.ReplayRequest) (string, func() ([]byte, error), error) {
	params, err := s.traceParams(req.Workload)
	if err != nil {
		return "", nil, err
	}
	greenName, baseName := req.Green, req.Base
	if greenName == "" {
		greenName = "GreenSKU-Full"
	}
	if baseName == "" {
		baseName = "Baseline"
	}
	greenSKU, err := s.lookupSKU("green", greenName)
	if err != nil {
		return "", nil, err
	}
	baseSKU, err := s.lookupSKU("base", baseName)
	if err != nil {
		return "", nil, err
	}
	pol, err := alloc.ParsePolicy(req.Policy)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	nGreen, nBase := req.GreenServers, req.BaseServers
	if nGreen == 0 {
		nGreen = 1000
	}
	if nBase == 0 {
		nBase = 1000
	}
	if nGreen < 0 || nGreen > maxReplayServers || nBase < 0 || nBase > maxReplayServers {
		return "", nil, fmt.Errorf("%w: pool sizes %d/%d out of [0,%d]", errBadRequest, nGreen, nBase, maxReplayServers)
	}
	if err := checkReplayKnobs("straight", req.AdoptPercent, req.Scale); err != nil {
		return "", nil, err
	}
	forkFrac := req.ForkFrac
	if forkFrac == 0 {
		forkFrac = 0.5
	}
	if math.IsNaN(forkFrac) || forkFrac < 0 || forkFrac >= 1 {
		return "", nil, fmt.Errorf("%w: fork_frac %v out of [0,1)", errBadRequest, req.ForkFrac)
	}
	if len(req.Forks) > maxReplayForks {
		return "", nil, fmt.Errorf("%w: %d forks exceed the limit of %d", errBadRequest, len(req.Forks), maxReplayForks)
	}
	forks := make([]api.ReplayFork, len(req.Forks))
	for i, f := range req.Forks {
		if f.Name == "" {
			f.Name = fmt.Sprintf("fork-%d", i)
		}
		if err := checkReplayKnobs(f.Name, f.AdoptPercent, f.Scale); err != nil {
			return "", nil, err
		}
		forks[i] = f
	}

	cfg := alloc.Config{
		Base:   core.ClassOf(baseSKU, false),
		NBase:  nBase,
		Green:  core.ClassOf(greenSKU, true),
		NGreen: nGreen,
		Policy: pol, PreferNonEmpty: req.PreferNonEmpty,
	}
	if s.cfg.Audit != nil {
		cfg.Audit = s.cfg.Audit
	}

	parts := []string{"replay", params.Name, strconv.FormatUint(params.Seed, 10),
		strconv.FormatFloat(params.ArrivalsPerHour, 'g', -1, 64),
		strconv.FormatFloat(params.HorizonHours, 'g', -1, 64),
		greenSKU.Name, baseSKU.Name, strconv.Itoa(nGreen), strconv.Itoa(nBase),
		pol.String(), strconv.FormatBool(req.PreferNonEmpty),
		strconv.Itoa(req.AdoptPercent), strconv.FormatFloat(replayScale(req.Scale), 'g', -1, 64),
		strconv.FormatFloat(forkFrac, 'g', -1, 64)}
	for _, f := range forks {
		parts = append(parts, f.Name, strconv.Itoa(f.AdoptPercent),
			strconv.FormatFloat(replayScale(f.Scale), 'g', -1, 64))
	}
	key := cacheKey(parts...)

	return key, func() ([]byte, error) {
		tr, err := trace.Generate(params)
		if err != nil {
			return nil, err
		}
		cut := int(forkFrac * float64(len(tr.VMs)))
		sim, err := alloc.NewSim(tr.Name, cfg, replayDecider(req.AdoptPercent, replayScale(req.Scale)))
		if err != nil {
			return nil, err
		}
		var snap bytes.Buffer
		for i, vm := range tr.VMs {
			if i == cut {
				if err := sim.Snapshot(&snap); err != nil {
					return nil, err
				}
			}
			if err := sim.Step(vm); err != nil {
				return nil, err
			}
		}
		if snap.Len() == 0 { // empty trace: checkpoint the idle cluster
			if err := sim.Snapshot(&snap); err != nil {
				return nil, err
			}
		}
		straight := sim.Finish(tr.Horizon)

		resp := api.ReplayResponse{
			Workload:      api.EvaluateWorkload{Name: tr.Name, Seed: params.Seed, VMs: len(tr.VMs)},
			Policy:        pol.String(),
			ForkEvent:     cut,
			SnapshotBytes: snap.Len(),
			Straight:      replayOutcome("straight", straight),
		}
		for _, f := range forks {
			fsim, err := alloc.Restore(bytes.NewReader(snap.Bytes()),
				replayDecider(f.AdoptPercent, replayScale(f.Scale)), audit.Resolve(cfg.Audit))
			if err != nil {
				return nil, err
			}
			for _, vm := range tr.VMs[cut:] {
				if err := fsim.Step(vm); err != nil {
					return nil, err
				}
			}
			resp.Forks = append(resp.Forks, replayOutcome(f.Name, fsim.Finish(tr.Horizon)))
		}
		return marshalBody(resp)
	}, nil
}

// replayOutcome maps a simulation Result onto the wire, dropping
// undefined (NaN) utilisation means.
func replayOutcome(name string, r alloc.Result) api.ReplayOutcome {
	return api.ReplayOutcome{
		Name:      name,
		Placed:    r.Placed,
		Rejected:  r.Rejected,
		Snapshots: r.Snapshots,
		Base:      replayStats(r.Base),
		Green:     replayStats(r.Green),
	}
}

func replayStats(cs alloc.ClassStats) api.ReplayPoolStats {
	opt := func(v float64) *float64 {
		if math.IsNaN(v) {
			return nil
		}
		return &v
	}
	return api.ReplayPoolStats{
		CorePacking:   opt(cs.CorePacking),
		MemPacking:    opt(cs.MemPacking),
		MaxMemUtil:    opt(cs.MaxMemUtil),
		CXLServedFrac: opt(cs.CXLServedFrac),
		LocalFitsFrac: opt(cs.LocalFitsFrac),
	}
}
