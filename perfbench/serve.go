package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/greensku/gsf"
	"github.com/greensku/gsf/internal/server"
	"github.com/greensku/gsf/internal/server/api"
	"github.com/greensku/gsf/internal/units"
)

// Serve workload shape, cmd/gsfload's default mix: serveRate requests/s
// on a fixed clock, alternating /v1/percore and /v1/savings, each at one
// of serveKeys carbon intensities, with at most serveInflight requests
// outstanding. gsfload cycles through the keys in order; here the seed
// draws each request's key.
const (
	serveRate     = 200.0
	serveKeys     = 64
	serveInflight = 512
	// lateThreshold is how far behind schedule a send must start to count
	// as late.
	lateThreshold = time.Millisecond
)

// request is one scheduled send.
type request struct {
	at      time.Duration // due time, from the start of the window
	savings bool          // /v1/savings, else /v1/percore
	ci      float64
}

func (r request) path() string {
	if r.savings {
		return "/v1/savings"
	}
	return "/v1/percore"
}

func (r request) body() string {
	if r.savings {
		return fmt.Sprintf(`{"sku":"GreenSKU-CXL","ci":%g}`, r.ci)
	}
	return fmt.Sprintf(`{"sku":"GreenSKU-Full","ci":%g}`, r.ci)
}

// schedule draws the window's requests from the seed.
func schedule(seed uint64, window time.Duration) []request {
	rng := rand.New(rand.NewPCG(seed, 0x6773666c6f6164))
	interval := time.Duration(float64(time.Second) / serveRate)
	var reqs []request
	for at := time.Duration(0); at < window; at += interval {
		reqs = append(reqs, request{
			at:      at,
			savings: len(reqs)%2 == 1,
			ci:      0.05 + 0.001*float64(rng.IntN(serveKeys)),
		})
	}
	return reqs
}

// serveEnv is an in-process gsfd on a loopback listener.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	url    string
	client *http.Client
}

func newServeEnv() (*serveEnv, error) {
	srv, err := server.New(server.Config{
		// Open-loop latency is measured under whatever backlog builds up;
		// the queue is deep so that no request is shed.
		QueueDepth: 4096,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConns: serveInflight, MaxIdleConnsPerHost: serveInflight},
		},
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	// Set-up ends with the first answer, at a carbon intensity outside
	// the measured key space so the window's cache misses are its own.
	if s := e.send(request{ci: 1}); s.err != nil || s.status != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("first request: status %d: %v", s.status, s.err)
	}
	return e, nil
}

func (e *serveEnv) close() {
	e.hs.Close()
	<-e.served
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// sample is one request's observation.
type sample struct {
	status int
	body   []byte
	hit    bool
	err    error
	// latency runs from the due time, so a stalled generator or a
	// backlog shows; late is how far behind schedule the send started.
	latency, late time.Duration
}

func (e *serveEnv) send(r request) sample {
	resp, err := e.client.Post(e.url+r.path(), api.ContentTypeJSON, strings.NewReader(r.body()))
	if err != nil {
		return sample{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return sample{status: resp.StatusCode, body: body, hit: resp.Header.Get(api.HeaderCache) == "hit", err: err}
}

// drive sends every request at its due time, without waiting for
// earlier ones to complete, and returns once all have completed.
func (e *serveEnv) drive(reqs []request) []sample {
	samples := make([]sample, len(reqs))
	inflight := make(chan struct{}, serveInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.at)
		time.Sleep(time.Until(due))
		samples[i].late = time.Since(due)
		select {
		case inflight <- struct{}{}:
		default:
			samples[i].err = errors.New("too many requests in flight")
			continue
		}
		wg.Add(1)
		go func(i int, r request, due time.Time) {
			defer wg.Done()
			defer func() { <-inflight }()
			s := e.send(r)
			s.latency, s.late = time.Since(due), samples[i].late
			samples[i] = s
		}(i, r, due)
	}
	wg.Wait()
	return samples
}

// runServe measures request latency from each request's due time.
// Counts: cache_hits and cache_hit_pct are result-cache hits reported by
// X-Cache, and late_sends the sends that started more than lateThreshold
// behind schedule.
func runServe(cfg config) (outcome, error) {
	env, setups, err := setUp(newServeEnv, func(e *serveEnv) { e.close() })
	if err != nil {
		return outcome{}, err
	}
	out := outcome{setups: setups, counts: map[string]float64{}}
	reqs := schedule(cfg.seed, cfg.window)
	var samples []sample
	err = measure(cfg, &out, func() { samples = env.drive(reqs) })
	env.close()
	if err != nil {
		return outcome{}, err
	}

	out.attempted = len(reqs)
	var hits, late int
	for _, s := range samples {
		if s.late > lateThreshold {
			late++
		}
		if s.err != nil || s.status != http.StatusOK {
			if out.failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: request failed: status %d: %v\n", s.status, s.err)
			}
			out.failed++
			continue
		}
		out.latencies = append(out.latencies, millis(s.latency))
		if s.hit {
			hits++
		}
	}
	out.counts["cache_hits"] = float64(hits)
	out.counts["cache_hit_pct"] = hitPct(int64(hits), int64(len(out.latencies)-hits))
	out.counts["late_sends"] = float64(late)
	if err := checkAnswers(reqs, samples); err != nil {
		out.note(err)
	}
	return out, nil
}

// checkAnswers recomputes every answer in process and requires it to be
// exactly what the service returned.
func checkAnswers(reqs []request, samples []sample) error {
	m, err := gsf.NewModel(gsf.OpenSourceData())
	if err != nil {
		return err
	}
	for i, r := range reqs {
		s := samples[i]
		if s.err != nil || s.status != http.StatusOK {
			continue
		}
		ci := units.CarbonIntensity(r.ci)
		if r.savings {
			var got api.SavingsResponse
			if err := json.Unmarshal(s.body, &got); err != nil {
				return fmt.Errorf("savings: %v", err)
			}
			want, err := m.Savings(gsf.GreenSKUCXL(), gsf.BaselineGen3(), ci)
			if err != nil {
				return err
			}
			if got.Total != want.Total || got.Operational != want.Operational || got.Embodied != want.Embodied {
				return fmt.Errorf("savings at ci %g: got %+v, want %+v", r.ci, got, want)
			}
			continue
		}
		var got api.PerCoreResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			return fmt.Errorf("percore: %v", err)
		}
		want, err := m.PerCore(gsf.GreenSKUFull(), ci)
		if err != nil {
			return err
		}
		if got.Total != want.Total() || got.Operational != want.Operational || got.Embodied != want.Embodied {
			return fmt.Errorf("percore at ci %g: got %+v, want %+v", r.ci, got, want)
		}
	}
	return nil
}
