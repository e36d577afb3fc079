package server

// Streaming responses for sweep-sized requests. /v1/batch, /v1/sweep
// and /v1/design negotiate a streaming format through the Accept header:
//
//	Accept: application/x-ndjson   one JSON object per line
//	Accept: text/event-stream      Server-Sent Events
//
// Either way the server emits one record per item in completion order
// — each carrying the item's request index, so clients can correlate —
// followed by a terminal "done" record. Results are written and
// flushed as the engine finishes them, so response memory is O(workers)
// instead of O(items): a 10k-item batch streams with bounded buffering
// and its first result lands before the last item is evaluated.
// Per-item errors travel in-band as the same envelope the buffered
// path embeds.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/server/api"
)

// streamMode inspects the Accept header: "ndjson", "sse", or "" for
// the default buffered JSON response. The first recognised streaming
// media type wins.
func streamMode(r *http.Request) string {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch mt {
		case api.ContentTypeNDJSON:
			return "ndjson"
		case api.ContentTypeSSE:
			return "sse"
		}
	}
	return ""
}

// stream serves n items as a stream: the negotiated content type and
// shard headers, then one "result" record per item in completion
// order with one flush per record, then the record done builds from
// the error count. item computes one item's in-band result; a job the
// engine fails (cancelled before dispatch, or panicked) is folded
// in-band the same way. /v1/batch, /v1/sweep and /v1/design all
// stream through here.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, mode string, n int,
	item func(ctx context.Context, i int) (api.BatchResult, error), done func(ctx context.Context, errs int) any) {
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
	engine.Stream(ctx, s.cfg.Workers, n, item, func(i int, res engine.Result[api.BatchResult]) {
		out := folded(res)
		if out.Error != nil {
			errs++
		}
		s.metrics.StreamedResults.inc()
		writeStreamRecord(w, flusher, mode, "result", api.BatchStreamItem{
			Index: i, OK: out.OK, Cached: out.Cached,
			Error: out.Error, Status: out.Status,
		})
	})
	writeStreamRecord(w, flusher, mode, "done", done(ctx, errs))
}

// writeStreamRecord emits one record in the negotiated framing and
// flushes it so the client sees it immediately. Write errors are
// ignored: a mid-stream disconnect cancels the request context, which
// stops dispatch.
func writeStreamRecord(w io.Writer, f http.Flusher, mode, event string, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		return
	}
	if mode == "sse" {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, body)
	} else {
		w.Write(append(body, '\n'))
	}
	if f != nil {
		f.Flush()
	}
}
