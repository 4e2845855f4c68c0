package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// Spans. A traced run records one span per operation (read, write or
// reconfig) and one per transport Invoke made on its behalf; an Invoke
// span's parent is its operation's span. Spans stay in memory and are
// written to a JSON-lines file when the run ends.

type span struct {
	id, parent uint64
	service    string // operation spans: "op"
	typ        string // operation spans: read, write, reconfig
	start, end time.Time
	bytes      int64 // request plus response payload bytes of an Invoke
}

func (s span) name() string { return s.service + "/" + s.typ }

type tracer struct {
	mu      sync.Mutex
	spans   []span
	nextID  atomic.Uint64
	invokes atomic.Int64 // every Invoke through the decorator, traced or not
}

type opSpanKey struct{}

// beginOp returns ctx carrying a fresh operation span id.
func (t *tracer) beginOp(ctx context.Context) (context.Context, uint64) {
	id := t.nextID.Add(1)
	return context.WithValue(ctx, opSpanKey{}, id), id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) endOp(id uint64, kind string, start time.Time) {
	t.add(span{id: id, service: "op", typ: kind, start: start, end: time.Now()})
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

// tracedRPC is the timing decorator on the transport.Client that the
// benchmark hands to every reader, writer and reconfigurer.
type tracedRPC struct {
	inner transport.Client
	t     *tracer
}

func (c tracedRPC) Invoke(ctx context.Context, dst types.ProcessID, req transport.Request) (transport.Response, error) {
	c.t.invokes.Add(1)
	parent, ok := ctx.Value(opSpanKey{}).(uint64)
	if !ok {
		return c.inner.Invoke(ctx, dst, req)
	}
	start := time.Now()
	resp, err := c.inner.Invoke(ctx, dst, req)
	c.t.add(span{
		id: c.t.nextID.Add(1), parent: parent,
		service: req.Service, typ: req.Type,
		start: start, end: time.Now(),
		bytes: int64(len(req.Payload) + len(resp.Payload)),
	})
	return resp, err
}

// writeSpans appends spans to path as JSON lines, times in nanoseconds
// since base.
func writeSpans(path string, base time.Time, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
			s.id, s.parent, s.name(), s.start.Sub(base).Nanoseconds(), s.end.Sub(base).Nanoseconds(), s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats accumulates the per-layer figures derived from spans.
type spanStats struct {
	ops, reads, writes, reconfigs int
	invokes                       int // Invokes under read/write spans
	invokeMs                      []float64
	payload, dapBytes             int64
	readConfigInvokes             int
	readConfigMs, getTagMs        float64
	getDataMs, putDataMs, selfMs  float64
	reconfigInvokes               int
	paxosMs, transferMs           float64
}

// isDAP reports whether an Invoke belongs to a data-access primitive.
func isDAP(service string) bool { return service == "abd" || service == "treas" }

// add folds one batch of spans into the stats. Each operation's layer
// times are the union of its children's intervals, clipped to the
// operation, so a quorum phase fanned out to five servers counts once.
func (st *spanStats) add(spans []span) {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	for _, op := range spans {
		if op.service != "op" {
			continue
		}
		kids := children[op.id]
		cover := func(keep func(span) bool) float64 { return unionMs(op, kids, keep) }
		if op.typ == "reconfig" {
			st.reconfigs++
			st.reconfigInvokes += len(kids)
			st.paxosMs += cover(func(s span) bool { return s.service == "paxos" })
			st.transferMs += cover(func(s span) bool { return isDAP(s.service) })
			continue
		}
		st.ops++
		st.invokes += len(kids)
		for _, k := range kids {
			st.invokeMs = append(st.invokeMs, ms(k.end.Sub(k.start)))
			st.payload += k.bytes
			if isDAP(k.service) {
				st.dapBytes += k.bytes
			}
			if k.service == "recon" && k.typ == "read-config" {
				st.readConfigInvokes++
			}
		}
		st.readConfigMs += cover(func(s span) bool { return s.service == "recon" && s.typ == "read-config" })
		st.putDataMs += cover(func(s span) bool { return isDAP(s.service) && (s.typ == "write" || s.typ == "put-data") })
		st.selfMs += ms(op.end.Sub(op.start)) - cover(func(span) bool { return true })
		if op.typ == "write" {
			st.writes++
			st.getTagMs += cover(func(s span) bool { return isDAP(s.service) && s.typ == "query-tag" })
		} else {
			st.reads++
			st.getDataMs += cover(func(s span) bool { return isDAP(s.service) && (s.typ == "query" || s.typ == "query-list") })
		}
	}
}

// unionMs is the time within op covered by at least one kept child.
func unionMs(op span, kids []span, keep func(span) bool) float64 {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		if !keep(k) {
			continue
		}
		a, b := k.start, k.end
		if a.Before(op.start) {
			a = op.start
		}
		if b.After(op.end) {
			b = op.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return ms(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
