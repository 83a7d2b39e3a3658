package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"

	"pipemap/internal/fxrt"
	"pipemap/internal/ingest"
	"pipemap/internal/obs"
)

// This file is the benchmark's own tracing: wrappers around the public
// seams of each layer (the HTTP handler, the ingest.Codec, the
// ingest.Backend, fxrt.Stage.Run and fxrt.Edge.Transfer) that stamp the
// boundaries of every request into an in-memory record. Nothing inside the
// program is instrumented; the untraced runs use the seams unwrapped.

// maxStages bounds the stages a traced pipeline may have.
const maxStages = 4

// stageRec holds one request's boundaries at one stage; 0 means unset
// (every stamp is positive nanoseconds since base).
type stageRec struct {
	xferStart, xferEnd int64 // edge transfer into this stage, if any
	runStart, runEnd   int64
}

// start is when the stage began work on the request: its inbound transfer
// if it has one, else its Run.
func (s stageRec) start() int64 {
	if s.xferStart != 0 {
		return s.xferStart
	}
	return s.runStart
}

// reqRec is one traced request's server-side boundaries. Each field is
// written once, by whichever goroutine crosses that boundary; every write
// happens before the request's handler returns (the plane hands the
// outcome back over a channel), and records are read only after the
// tracer's handler WaitGroup drains.
type reqRec struct {
	hStart, hEnd       int64 // inside the submit handler
	decStart, decEnd   int64 // codec Decode
	pushStart, pushEnd int64 // Backend.PushTraced
	stages             [maxStages]stageRec
	encStart, encEnd   int64 // codec Encode
}

// tracer owns the records of one traced serving path, indexed by the
// request ID the load generator assigns.
type tracer struct {
	recs []reqRec
	wg   sync.WaitGroup // handlers in flight
}

func newTracer(capacity int) *tracer { return &tracer{recs: make([]reqRec, capacity)} }

// rec returns the record for rid, or nil outside the traced ID range.
func (t *tracer) rec(rid int) *reqRec {
	if rid < 0 || rid >= len(t.recs) {
		return nil
	}
	return &t.recs[rid]
}

// quiesce waits until every handler that started has returned, ordering
// all record writes before the caller's reads.
func (t *tracer) quiesce() { t.wg.Wait() }

// tagged carries a request's record through the pipeline alongside its
// data set, so stage and edge wrappers know whose boundaries they stamp.
type tagged struct {
	rec *reqRec
	ds  fxrt.DataSet
}

// ridHeader carries the load generator's request ID.
const ridHeader = "X-Bench-Rid"

// handler times the submit handler per request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.wg.Add(1)
		defer t.wg.Done()
		start := now()
		h.ServeHTTP(w, r)
		end := now()
		rid, err := strconv.Atoi(r.Header.Get(ridHeader))
		if rec := t.rec(rid); err == nil && rec != nil {
			rec.hStart, rec.hEnd = start, end
		}
	})
}

// ridFromInput finds the "rid" field the load generator puts in every
// request's input (the codecs ignore it).
func ridFromInput(input json.RawMessage) int {
	i := bytes.Index(input, []byte(`"rid":`))
	if i < 0 {
		return -1
	}
	n, ok := 0, false
	for _, c := range input[i+len(`"rid":`):] {
		if c < '0' || c > '9' {
			break
		}
		n, ok = n*10+int(c-'0'), true
	}
	if !ok {
		return -1
	}
	return n
}

// tracedCodec times Decode and Encode and tags decoded data sets.
type tracedCodec struct {
	ingest.Codec
	t *tracer
}

func (c tracedCodec) Decode(input json.RawMessage) (fxrt.DataSet, error) {
	start := now()
	ds, err := c.Codec.Decode(input)
	end := now()
	rec := c.t.rec(ridFromInput(input))
	if err != nil || rec == nil {
		return ds, err
	}
	rec.decStart, rec.decEnd = start, end
	return &tagged{rec: rec, ds: ds}, nil
}

func (c tracedCodec) Encode(out fxrt.DataSet) (any, error) {
	tg, ok := out.(*tagged)
	if !ok {
		return c.Codec.Encode(out)
	}
	start := now()
	res, err := c.Codec.Encode(tg.ds)
	tg.rec.encStart, tg.rec.encEnd = start, now()
	return res, err
}

// tracedBackend times the push into the pipeline engine (backpressure).
type tracedBackend struct {
	ingest.Backend
}

func (b tracedBackend) PushTraced(ctx context.Context, ds fxrt.DataSet, rt *obs.ReqTrace) (<-chan fxrt.StreamResult, error) {
	start := now()
	ch, err := b.Backend.PushTraced(ctx, ds, rt)
	if tg, ok := ds.(*tagged); ok {
		tg.rec.pushStart, tg.rec.pushEnd = start, now()
	}
	return ch, err
}

// wrapStages times every stage's Run and every edge's Transfer, unwrapping
// the tagged data set for the real work and re-wrapping its output.
// Untagged data sets pass straight through.
func wrapStages(pl *fxrt.Pipeline, edges []fxrt.Edge) {
	for i := range pl.Stages {
		run := pl.Stages[i].Run
		pl.Stages[i].Run = func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			tg, ok := in.(*tagged)
			if !ok || i >= maxStages {
				return run(ctx, in)
			}
			start := now()
			out, err := run(ctx, tg.ds)
			tg.rec.stages[i].runStart, tg.rec.stages[i].runEnd = start, now()
			tg.ds = out
			return tg, err
		}
	}
	for e := range edges {
		i, xfer := e+1, edges[e].Transfer
		if xfer == nil {
			continue
		}
		edges[e].Transfer = func(ctx *fxrt.StageCtx, in fxrt.DataSet) (fxrt.DataSet, error) {
			tg, ok := in.(*tagged)
			if !ok || i >= maxStages {
				return xfer(ctx, in)
			}
			start := now()
			out, err := xfer(ctx, tg.ds)
			tg.rec.stages[i].xferStart, tg.rec.stages[i].xferEnd = start, now()
			tg.ds = out
			return tg, err
		}
	}
}
