package server

// Consistent-hash sharding of the evaluation keyspace across gsfd
// replicas. Every evaluation already has a canonical cache key
// (dataset + SKU + input digest, see cacheKey); the ring assigns each
// key an owning replica, and a replica that receives a request it does
// not own forwards it transparently — the client talks to any replica
// and sees one logical service. Replica caches therefore partition the
// keyspace instead of duplicating it: N replicas hold N distinct cache
// populations, and a warm fleet answers most traffic from exactly one
// cache.
//
// Loop prevention: forwarded requests carry X-GSF-Forwarded and are
// always served locally by the receiver, so a misconfigured ring costs
// one extra hop, never a cycle. Availability beats strict partitioning:
// if the owner is unreachable, the receiving replica computes locally
// and the fleet degrades to duplicated caching instead of failing.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/greensku/gsf/internal/server/api"
)

// vnodesPerReplica is the virtual-node count per replica; 128 keeps
// the keyspace split within a few percent of even for small fleets.
const vnodesPerReplica = 128

// ring is an immutable consistent-hash ring over replica base URLs.
type ring struct {
	self   string
	addrs  []string // all replicas, normalised, self included
	vnodes []vnode  // sorted by hash
	client *http.Client
}

type vnode struct {
	hash uint64
	addr string
}

// newRing builds the shard ring from this replica's advertised URL and
// the full peer list. Returns nil when the normalised membership is
// just this replica (sharding off). Every replica must be configured
// with the same membership for the partition to be coherent; a
// divergent view still serves correctly (forwarded requests compute
// locally) but caches overlap.
func newRing(self string, peers []string, timeout time.Duration) (*ring, error) {
	self = normalizeReplica(self)
	if self == "" {
		return nil, errors.New("server: -peers requires -self, this replica's advertised URL")
	}
	seen := map[string]bool{self: true}
	addrs := []string{self}
	for _, p := range peers {
		p = normalizeReplica(p)
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		addrs = append(addrs, p)
	}
	if len(addrs) < 2 {
		return nil, nil
	}
	sort.Strings(addrs)
	r := &ring{
		self:  self,
		addrs: addrs,
		client: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		},
	}
	for _, addr := range addrs {
		for i := 0; i < vnodesPerReplica; i++ {
			r.vnodes = append(r.vnodes, vnode{hash: fnv64a(fmt.Sprintf("%s#%d", addr, i)), addr: addr})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool { return r.vnodes[i].hash < r.vnodes[j].hash })
	return r, nil
}

// normalizeReplica canonicalises a replica URL so "http://a:1/" and
// "http://a:1" are the same member.
func normalizeReplica(addr string) string {
	return strings.TrimRight(strings.TrimSpace(addr), "/")
}

func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// owner returns the replica owning key: the first vnode clockwise from
// the key's hash.
func (r *ring) owner(key string) string {
	h := fnv64a(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0
	}
	return r.vnodes[i].addr
}

// size reports the replica count.
func (r *ring) size() int { return len(r.addrs) }

// isForwarded reports whether a request already hopped once.
func isForwarded(r *http.Request) bool {
	return r.Header.Get(api.HeaderForwarded) != ""
}

// ownsKey reports whether this replica serves key itself: it is not
// sharded, the request was forwarded to it, or it owns key.
func (s *Server) ownsKey(r *http.Request, key string) bool {
	return s.ring == nil || isForwarded(r) || s.ring.owner(key) == s.ring.self
}

// maybeForward proxies a single-endpoint request to the replica owning
// its cache key. Returns true when the response has been written. A
// transport failure falls back to local computation (returns false).
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, key string, body []byte) bool {
	if s.ownsKey(r, key) {
		return false
	}
	owner := s.ring.owner(key)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderForwarded, s.ring.self)
	for _, h := range []string{"Accept", api.HeaderClient, api.HeaderPriority} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := s.ring.client.Do(req)
	if err != nil {
		s.metrics.ForwardFailed.inc()
		s.log.Warn("shard forward failed; serving locally", "owner", owner, "err", err)
		return false
	}
	defer resp.Body.Close()
	s.metrics.Forwarded.inc()
	for _, h := range []string{"Content-Type", api.HeaderCache, "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(api.HeaderShard, "forwarded")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// errForwardTransport marks a forward that never reached the owner;
// callers fall back to local computation.
var errForwardTransport = errors.New("server: shard forward failed")

// forwardedError relays an owner's error reply verbatim: the envelope
// and status the owner answered with become the item's in-band result.
type forwardedError struct {
	status int
	e      api.Error
}

func (f *forwardedError) Error() string {
	return fmt.Sprintf("shard owner answered %d: %s", f.status, f.e.Message)
}

// forwardItem re-sends one batch/sweep item to the owning replica's
// single endpoint and returns the exact body it answered with.
func (s *Server) forwardItem(ctx context.Context, owner string, it api.BatchItem) ([]byte, bool, error) {
	path, payload := itemEndpoint(it)
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+path, bytes.NewReader(body))
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errForwardTransport, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(api.HeaderForwarded, s.ring.self)
	resp, err := s.ring.client.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errForwardTransport, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", errForwardTransport, err)
	}
	if resp.StatusCode != http.StatusOK {
		var env api.ErrorResponse
		if json.Unmarshal(out, &env) == nil && env.Error.Code != "" {
			return nil, false, &forwardedError{status: resp.StatusCode, e: env.Error}
		}
		return nil, false, &forwardedError{status: resp.StatusCode,
			e: api.Error{Code: api.CodeInternal, Message: fmt.Sprintf("shard owner %s: status %d", owner, resp.StatusCode)}}
	}
	return out, resp.Header.Get(api.HeaderCache) == "hit", nil
}

// computeItem serves one batch/sweep item: forwarded to the shard
// owner when the key is remote, computed locally otherwise (and on
// forward transport failure).
func (s *Server) computeItem(ctx context.Context, r *http.Request, it api.BatchItem, key string, fn func() ([]byte, error)) ([]byte, bool, error) {
	if s.ring != nil && !isForwarded(r) {
		if owner := s.ring.owner(key); owner != s.ring.self {
			body, cached, err := s.forwardItem(ctx, owner, it)
			if err == nil || !errors.Is(err, errForwardTransport) {
				s.metrics.Forwarded.inc()
				return body, cached, err
			}
			s.metrics.ForwardFailed.inc()
			s.log.Warn("item forward failed; computing locally", "owner", owner, "err", err)
		}
	}
	return s.compute(ctx, key, fn)
}
