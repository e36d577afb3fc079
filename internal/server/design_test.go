package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/server/api"
	"github.com/greensku/gsf/internal/units"
)

// tinyDesignSpace mirrors the design package's test space: two CPUs, a
// CXL corner, and a GPU option — a handful of candidates over three
// performance profiles, fast enough for handler tests and fuzzing.
func tinyDesignSpace() design.Space {
	return design.Space{
		CPUs:            []hw.CPUSpec{hw.Genoa, hw.Bergamo},
		LocalDIMMCounts: []int{12},
		LocalDIMMGBs:    []units.GB{64, 96},
		CXLDIMMCounts:   []int{0, 8},
		NewSSDCounts:    []int{3},
		ReusedSSDCounts: []int{0},
		GPUOptions:      []design.GPUOption{{}, {Spec: hw.L4, Count: 2}},
	}
}

func tinyDesignConfig() Config {
	sp := tinyDesignSpace()
	popt := design.DefaultPerfOptions()
	popt.Base.Requests = 1500
	popt.KneeLo, popt.KneeHi, popt.KneeTol = 0.5, 0.9, 0.1
	return Config{DesignSpace: &sp, DesignPerf: &popt}
}

func TestDesignBuffered(t *testing.T) {
	s := newTestServer(t, tinyDesignConfig())
	h := s.Handler()

	w := post(t, h, "/v1/design", `{"include_paper":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp api.DesignResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Dataset != "open-source" {
		t.Errorf("dataset %q, want open-source", resp.Dataset)
	}
	if len(resp.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if len(resp.Verdicts) != 5 {
		t.Fatalf("%d verdicts, want the paper's 5", len(resp.Verdicts))
	}
	onFrontier := map[string]bool{}
	for _, p := range resp.Frontier {
		onFrontier[p.SKU] = true
	}
	for _, v := range resp.Verdicts {
		if v.OnFrontier == (v.DominatedBy != "") {
			t.Errorf("%s: on_frontier=%v with dominated_by=%q", v.Point.SKU, v.OnFrontier, v.DominatedBy)
		}
		if v.DominatedBy != "" && !onFrontier[v.DominatedBy] {
			t.Errorf("%s dominated by %q, which is not a frontier point", v.Point.SKU, v.DominatedBy)
		}
	}

	// The reply is a deterministic function of the request: byte-equal
	// and cache-served on replay.
	w2 := post(t, h, "/v1/design", `{"include_paper":true}`)
	if w2.Code != http.StatusOK {
		t.Fatalf("replay status %d: %s", w2.Code, w2.Body)
	}
	if w2.Header().Get(api.HeaderCache) != "hit" {
		t.Error("replayed design request missed the cache")
	}
	if w.Body.String() != w2.Body.String() {
		t.Error("replayed design request drifted from the first reply")
	}
}

// TestMetricsExportMemoCounters pins the SLO-memo and shared
// knee-search column counters on /metrics: one unaudited /v1/design
// request looks up both, so each family's hits plus misses must grow.
// (An audited search draws its own columns and leaves the column
// counters alone, so the test clears the package's default checker.)
func TestMetricsExportMemoCounters(t *testing.T) {
	prev := audit.Default()
	audit.SetDefault(nil)
	t.Cleanup(func() { audit.SetDefault(prev) })
	s := newTestServer(t, tinyDesignConfig())
	lookups := func() map[string]float64 {
		samples := parseOpenMetrics(t, get(t, s.Handler(), "/metrics").Body.String())
		out := map[string]float64{}
		for _, family := range []string{"gsfd_slo_memo", "gsfd_knee_columns"} {
			hits, okh := samples[family+"_hits"]
			misses, okm := samples[family+"_misses"]
			if !okh || !okm {
				t.Fatalf("/metrics lacks %s_hits or %s_misses", family, family)
			}
			out[family] = hits + misses
		}
		return out
	}
	before := lookups()
	if w := post(t, s.Handler(), "/v1/design", `{}`); w.Code != http.StatusOK {
		t.Fatalf("design status %d: %s", w.Code, w.Body)
	}
	after := lookups()
	for family, n := range after {
		if n <= before[family] {
			t.Errorf("%s lookups did not move on a design request: %v -> %v", family, before[family], n)
		}
	}
}

// streamDesignNDJSON posts body to /v1/design as an NDJSON stream and
// returns the result records, in stream order, and the done record.
func streamDesignNDJSON(t *testing.T, h http.Handler, body string) ([]api.BatchStreamItem, *api.DesignDone) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/design", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", api.ContentTypeNDJSON)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != api.ContentTypeNDJSON {
		t.Fatalf("content type %q", ct)
	}

	var results []api.BatchStreamItem
	var done *api.DesignDone
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Done bool `json:"done"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Done {
			done = &api.DesignDone{}
			if err := json.Unmarshal(line, done); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var item api.BatchStreamItem
		if err := json.Unmarshal(line, &item); err != nil {
			t.Fatalf("bad stream record %s: %v", line, err)
		}
		results = append(results, item)
	}
	if done == nil {
		t.Fatal("stream ended without a done record")
	}
	return results, done
}

// streamedPoints decodes each streamed record's design point by index.
func streamedPoints(t *testing.T, results []api.BatchStreamItem) map[int]api.DesignPoint {
	t.Helper()
	points := make(map[int]api.DesignPoint, len(results))
	for _, it := range results {
		var p api.DesignPoint
		if err := json.Unmarshal(it.OK, &p); err != nil {
			t.Fatalf("record %d has no design point: %v", it.Index, err)
		}
		points[it.Index] = p
	}
	return points
}

func TestDesignStreamNDJSON(t *testing.T) {
	cfg := tinyDesignConfig()
	cfg.Workers = 1 // deterministic completion order for the assertions
	s := newTestServer(t, cfg)

	results, done := streamDesignNDJSON(t, s.Handler(), `{"include_paper":true}`)
	if done.Items != len(results) {
		t.Fatalf("done.items %d, %d records streamed", done.Items, len(results))
	}
	if done.Errors != 0 {
		t.Fatalf("%d streamed errors", done.Errors)
	}
	if len(done.Frontier) == 0 {
		t.Fatal("done record carries no frontier")
	}
	points := streamedPoints(t, results)
	for _, idx := range done.Frontier {
		if _, ok := points[idx]; !ok {
			t.Errorf("frontier index %d has no streamed record", idx)
		}
	}
	if len(done.Verdicts) != 5 {
		t.Fatalf("%d streamed verdicts, want 5", len(done.Verdicts))
	}

	// The streamed frontier must name exactly the buffered frontier.
	wb := post(t, s.Handler(), "/v1/design", `{"include_paper":true}`)
	var buffered api.DesignResponse
	if err := json.Unmarshal(wb.Body.Bytes(), &buffered); err != nil {
		t.Fatal(err)
	}
	if len(buffered.Frontier) != len(done.Frontier) {
		t.Fatalf("buffered frontier has %d points, streamed %d", len(buffered.Frontier), len(done.Frontier))
	}
	for i, idx := range done.Frontier {
		if got, want := points[idx], buffered.Frontier[i]; got != want {
			t.Errorf("frontier[%d]: streamed %+v != buffered %+v", i, got, want)
		}
	}
}

func TestDesignBadInput(t *testing.T) {
	s := newTestServer(t, tinyDesignConfig())
	h := s.Handler()
	cases := []struct {
		name, body, code string
	}{
		{"unknown_cpu", `{"cpus":["Pentium"]}`, api.CodeBadInput},
		{"negative_gpus", `{"max_gpus":-1}`, api.CodeBadInput},
		{"unknown_dataset", `{"dataset":"secret"}`, api.CodeUnknownDataset},
		{"negative_ci", `{"ci":-0.2}`, api.CodeBadInput},
		{"unknown_field", `{"frontier":true}`, api.CodeBadInput},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, h, "/v1/design", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			var env api.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
		})
	}
}

func TestDesignCandidateLimit(t *testing.T) {
	cfg := tinyDesignConfig()
	cfg.MaxDesignCandidates = 2
	s := newTestServer(t, cfg)
	w := post(t, s.Handler(), "/v1/design", `{}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var env api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != api.CodeBadInput || env.Error.Limit != 2 {
		t.Errorf("envelope %+v, want bad_input with limit 2", env.Error)
	}
}

func TestDesignCPUAndGPUFilters(t *testing.T) {
	s := newTestServer(t, tinyDesignConfig())
	h := s.Handler()

	// CPU-only, Bergamo-only: every frontier point is a Bergamo SKU.
	w := post(t, h, "/v1/design", `{"cpus":["Bergamo"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp api.DesignResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for _, p := range resp.Frontier {
		if p.CPU != "Bergamo" {
			t.Errorf("frontier point %s uses CPU %s despite the filter", p.SKU, p.CPU)
		}
	}

	// max_gpus 0 must strip accelerator candidates; the tiny space's L4
	// corner halves away.
	w0 := post(t, h, "/v1/design", `{}`)
	wg := post(t, h, "/v1/design", `{"max_gpus":2}`)
	var r0, rg api.DesignResponse
	if err := json.Unmarshal(w0.Body.Bytes(), &r0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(wg.Body.Bytes(), &rg); err != nil {
		t.Fatal(err)
	}
	if rg.Candidates <= r0.Candidates {
		t.Errorf("max_gpus=2 enumerated %d candidates, max_gpus=0 %d: GPU dimension never opened",
			rg.Candidates, r0.Candidates)
	}
}

// TestDesignUnknownCPUErrorDeterministic sends two unknown CPUs: the
// error must name the first in request order every time, not whichever
// a map iteration happens to visit first.
func TestDesignUnknownCPUErrorDeterministic(t *testing.T) {
	s := newTestServer(t, tinyDesignConfig())
	h := s.Handler()
	var first string
	for i := 0; i < 20; i++ {
		w := post(t, h, "/v1/design", `{"cpus":["Pentium","Xeon"]}`)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if i == 0 {
			first = w.Body.String()
			if !strings.Contains(first, `\"Pentium\"`) || strings.Contains(first, "Xeon") {
				t.Fatalf("error does not name the first unknown cpu: %s", first)
			}
		} else if w.Body.String() != first {
			t.Fatalf("request %d answered %s, first answered %s", i, w.Body, first)
		}
	}
}

// TestDesignCPUFilterSharesCacheEntry sends CPU filters that select the
// same space in different orders and with a repeat: they name the same
// candidates, so the second and third requests are cache hits.
func TestDesignCPUFilterSharesCacheEntry(t *testing.T) {
	s := newTestServer(t, tinyDesignConfig())
	h := s.Handler()
	var first string
	for i, body := range []string{
		`{"cpus":["Bergamo","Genoa"]}`,
		`{"cpus":["Genoa","Bergamo"]}`,
		`{"cpus":["Genoa","Genoa","Bergamo"]}`,
	} {
		w := post(t, h, "/v1/design", body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", body, w.Code, w.Body)
		}
		want := "hit"
		if i == 0 {
			want, first = "miss", w.Body.String()
		} else if w.Body.String() != first {
			t.Errorf("%s answered differently from the first request", body)
		}
		if got := w.Header().Get(api.HeaderCache); got != want {
			t.Errorf("%s: X-Cache %q, want %q", body, got, want)
		}
	}
}

// TestDesignMatchesSearch pins gsfd to the library search: for the tiny
// space, with and without the paper's extras, the buffered /v1/design
// body is design.Search's Result mapped to the wire, and the streamed
// done record names the same frontier points and verdicts.
func TestDesignMatchesSearch(t *testing.T) {
	cfg := tinyDesignConfig()
	s := newTestServer(t, cfg)
	h := s.Handler()
	for _, paper := range []bool{false, true} {
		t.Run(fmt.Sprintf("include_paper=%v", paper), func(t *testing.T) {
			opt := design.Options{Space: *cfg.DesignSpace, Constraints: design.DefaultConstraints(),
				Dataset: "open-source", Perf: *cfg.DesignPerf, Epsilon: design.DefaultEpsilon()}
			if paper {
				opt.Extra = hw.TableIVConfigs()
			}
			res, err := design.Search(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := marshalBody(designResponse(res))
			if err != nil {
				t.Fatal(err)
			}
			// max_gpus 2 keeps the tiny space's L4 corner, so the served
			// space is opt.Space unfiltered.
			body := fmt.Sprintf(`{"max_gpus":2,"include_paper":%v}`, paper)
			w := post(t, h, "/v1/design", body)
			if w.Code != http.StatusOK {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			if got := w.Body.String(); got != string(want) {
				t.Fatalf("buffered reply differs from design.Search:\n got %s\nwant %s", got, want)
			}

			results, done := streamDesignNDJSON(t, h, body)
			if done.Items != res.Candidates || done.Errors != 0 {
				t.Fatalf("done record %+v, want %d items and no errors", done, res.Candidates)
			}
			points := streamedPoints(t, results)
			if len(done.Frontier) != len(res.Frontier) {
				t.Fatalf("streamed frontier has %d points, design.Search %d", len(done.Frontier), len(res.Frontier))
			}
			for i, idx := range done.Frontier {
				if got, want := points[idx], designPointOf(res.Frontier[i]); got != want {
					t.Errorf("frontier[%d]: streamed %+v, design.Search %+v", i, got, want)
				}
			}
			if len(done.Verdicts) != len(res.Verdicts) {
				t.Fatalf("%d streamed verdicts, design.Search %d", len(done.Verdicts), len(res.Verdicts))
			}
			for i, v := range res.Verdicts {
				if got, want := done.Verdicts[i], designVerdictOf(v); got != want {
					t.Errorf("verdict[%d]: streamed %+v, design.Search %+v", i, got, want)
				}
			}
		})
	}
}

// TestDesignAuditChecksFrontier runs /v1/design on a server audited by
// its own recorder. A buffered and a streamed request record nothing.
// Then a canary poisons one candidate's cached point with objectives
// that put it on the frontier: the streamed reply rebuilds that point
// from the cache, and the frontier audit must flag all three drifted
// objectives — proof that design.CheckFrontier runs on gsfd's path.
func TestDesignAuditChecksFrontier(t *testing.T) {
	cfg := tinyDesignConfig()
	rec := audit.NewRecorder()
	cfg.Audit = rec
	s := newTestServer(t, cfg)
	h := s.Handler()

	if w := post(t, h, "/v1/design", `{"include_paper":true}`); w.Code != http.StatusOK {
		t.Fatalf("buffered status %d: %s", w.Code, w.Body)
	}
	streamDesignNDJSON(t, h, `{"include_paper":true}`)
	if n := rec.Count(); n != 0 {
		t.Fatalf("audited design requests recorded %d violations: %v", n, rec.Violations())
	}

	opt, _, err := s.designOptions(api.DesignRequest{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := s.newDesignPlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	key := plan.pointKey(0)
	cached, ok := s.cache.get(key)
	if !ok {
		t.Fatal("the stream left candidate 0 uncached")
	}
	var p api.DesignPoint
	if err := json.Unmarshal(cached, &p); err != nil {
		t.Fatal(err)
	}
	p.CarbonPerCore /= 2
	p.PerfPerCore *= 2
	p.CoresPerRack *= 2
	poisoned, err := marshalBody(p)
	if err != nil {
		t.Fatal(err)
	}
	s.cache.put(key, poisoned)

	_, done := streamDesignNDJSON(t, h, `{}`)
	if len(done.Frontier) == 0 || done.Frontier[0] != 0 {
		t.Fatalf("poisoned candidate 0 did not lead the frontier: %v", done.Frontier)
	}
	counts := rec.Counts()
	for _, inv := range []string{"design/frontier-carbon", "design/frontier-perf", "design/frontier-density"} {
		if counts[inv] == 0 {
			t.Errorf("poisoned frontier point did not trip %s (counts: %v)", inv, counts)
		}
	}
}

// TestDesignCachedHitSkipsEnumeration pins the cost of a cached
// buffered /v1/design reply over the default 879-candidate space: the
// whole-request key comes from the validated filters, so a hit
// enumerates no candidates. Enumerating and rack-checking them costs
// thousands of allocations; the hit's budget is the HTTP round trip
// and the JSON decode.
func TestDesignCachedHitSkipsEnumeration(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	const body = `{"include_paper":true}`
	var req api.DesignRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	_, key, err := s.designOptions(req)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cache instead of evaluating the whole default space.
	reply := []byte(`{"dataset":"open-source"}` + "\n")
	s.cache.put(key, reply)
	check := func() {
		w := post(t, h, "/v1/design", body)
		if w.Code != http.StatusOK || w.Header().Get(api.HeaderCache) != "hit" || w.Body.String() != string(reply) {
			t.Fatalf("status %d, X-Cache %q, body %q: want the cached reply", w.Code, w.Header().Get(api.HeaderCache), w.Body)
		}
	}
	check()
	// ~120 on Go 1.24; the enumeration it skips costs ~6,500.
	if allocs := testing.AllocsPerRun(20, check); allocs > 300 {
		t.Errorf("a cached /v1/design hit allocates %.0f times, want at most 300", allocs)
	}
}

// TestDesignErrorsUnchangedByCache pins the error replies of invalid
// /v1/design requests, byte for byte, with the result cache cold and
// warm: filter errors come from the key's validation, and the
// candidate-limit errors from enumerating on a miss.
func TestDesignErrorsUnchangedByCache(t *testing.T) {
	cfg := tinyDesignConfig()
	cfg.MaxDesignCandidates = 4
	s := newTestServer(t, cfg)
	h := s.Handler()
	cases := []struct{ body, want string }{
		{`{"cpus":["Pentium"]}`, `{"error":{"code":"bad_input","message":"server: bad request: cpu \"Pentium\" is not in the design space"}}`},
		{`{"max_gpus":-1}`, `{"error":{"code":"bad_input","message":"server: bad request: negative max_gpus -1"}}`},
		{`{"dataset":"secret"}`, `{"error":{"code":"unknown_dataset","message":"server: bad request: dataset \"secret\" (see GET /v1/datasets)"}}`},
		{`{"ci":-0.2}`, `{"error":{"code":"bad_input","message":"server: bad request: negative carbon intensity -0.2"}}`},
		{`{"ci":5000}`, `{"error":{"code":"bad_input","message":"server: bad request: carbon intensity 5000 exceeds the evaluable bound of 1000 kgCO2e/kWh"}}`},
		{`{"include_paper":true}`, `{"error":{"code":"bad_input","message":"server: bad request: design space of 9 candidates exceeds the limit of 4 (GET /v1/limits)","limit":4}}`},
		{`{"cpus":["Bergamo"],"max_gpus":2}`, `{"error":{"code":"bad_input","message":"server: bad request: design space of 6 candidates exceeds the limit of 4 (GET /v1/limits)","limit":4}}`},
	}
	for _, warm := range []bool{false, true} {
		if warm {
			for _, body := range []string{`{}`, `{"cpus":["Bergamo"]}`} {
				if w := post(t, h, "/v1/design", body); w.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", body, w.Code, w.Body)
				}
			}
		}
		for _, tc := range cases {
			w := post(t, h, "/v1/design", tc.body)
			if w.Code != http.StatusBadRequest || w.Body.String() != tc.want+"\n" {
				t.Errorf("warm=%v %s: status %d, body %s; want 400, %s", warm, tc.body, w.Code, w.Body, tc.want)
			}
		}
	}
}
