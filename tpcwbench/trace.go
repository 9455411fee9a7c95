package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// The traced run times, from outside the program, the calls the benchmark
// makes into each layer's public API: the client's statement round trips
// over its own net.Conn, every server.Session call (by wrapping the
// sessions the backend hands the server), and replays of sqlparser.Parse
// and the core view rewrite on the texts the client sends. Spans stay in
// memory and are written out when the run ends.

// span is one timed call. Spans of one interaction share IX; Parent is 0
// for an interaction.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	IX     int64  `json:"ix"`
	Conn   int    `json:"conn"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Span names.
const (
	spanInteraction = "interaction"
	spanRTT         = "server.rtt"
	spanParse       = "sqlparser.parse"
	spanRewrite     = "core.rewrite"
	spanQuery       = "synergy.query"
	spanExec        = "synergy.exec"
	spanBegin       = "synergy.begin"
	spanCommit      = "synergy.commit"
	spanRollback    = "synergy.rollback"
)

type tracer struct {
	epoch  time.Time
	ids    atomic.Int64
	opened atomic.Int64 // sessions handed out, in connection order
	conns  []*connTrace

	mu    sync.Mutex
	spans []span
}

func newTracer(conns int) *tracer {
	tr := &tracer{epoch: time.Now()}
	for i := 0; i < conns; i++ {
		tr.conns = append(tr.conns, &connTrace{tr: tr, idx: i, calls: map[string]*callAcc{}})
	}
	return tr
}

func (tr *tracer) record(s span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// recorded returns the spans recorded so far.
func (tr *tracer) recorded() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans
}

// session wraps the session of the next connection opened. Connections
// are dialed one at a time, each after the previous handshake finished, so
// the i-th session belongs to the i-th client connection.
func (tr *tracer) session(s server.Session) server.Session {
	i := int(tr.opened.Add(1)) - 1
	if i >= len(tr.conns) {
		return s
	}
	return &tracedSession{Session: s, ct: tr.conns[i]}
}

// callAcc accumulates one kind of Session call.
type callAcc struct {
	n    int64
	wall time.Duration
	sim  sim.Micros
}

// connTrace is one client connection's tracing state. The client goroutine
// owns the client-side fields; the server goroutine running the
// connection's session writes the server-side ones under mu.
type connTrace struct {
	tr  *tracer
	idx int
	ix  atomic.Int64 // current interaction span
	rtt atomic.Int64 // current statement round-trip span

	// Client side.
	conn              *countingConn
	bytes, rtts       int64
	parse, rewrite    time.Duration
	selects, viewHits int64
	rowsReceived      int64

	// Server side, inside Session calls.
	mu    sync.Mutex
	calls map[string]*callAcc
	work  sim.Stats // summed counter deltas
}

// openSpan is a span being timed; the zero value (untraced) records
// nothing.
type openSpan struct {
	ct     *connTrace
	name   string
	id     int64
	parent int64
	ix     int64
	start  time.Time
}

// open starts a span. A nil connTrace (an untraced connection) opens a
// no-op span.
func (ct *connTrace) open(name string, parent int64) openSpan {
	if ct == nil {
		return openSpan{}
	}
	o := openSpan{ct: ct, name: name, id: ct.tr.ids.Add(1), parent: parent, ix: ct.ix.Load(), start: time.Now()}
	if parent == 0 {
		o.ix = o.id
	}
	return o
}

func (o openSpan) close() time.Duration {
	if o.ct == nil {
		return 0
	}
	end := time.Now()
	o.ct.tr.record(span{
		Name: o.name, ID: o.id, Parent: o.parent, IX: o.ix, Conn: o.ct.idx,
		Start: o.start.Sub(o.ct.tr.epoch).Nanoseconds(), End: end.Sub(o.ct.tr.epoch).Nanoseconds(),
	})
	return end.Sub(o.start)
}

// beginInteraction opens an interaction span and notes the bytes on the
// wire so far.
func (ct *connTrace) beginInteraction() openSpan {
	if ct == nil {
		return openSpan{}
	}
	o := ct.open(spanInteraction, 0)
	ct.ix.Store(o.id)
	ct.bytes -= ct.conn.n
	return o
}

func (ct *connTrace) endInteraction(o openSpan) {
	if ct == nil {
		return
	}
	ct.bytes += ct.conn.n
	o.close()
}

// roundTrip times one statement round trip; the Session calls it causes
// on the server become its children.
func (ct *connTrace) roundTrip(ix openSpan, f func() error) error {
	if ct == nil {
		return f()
	}
	o := ct.open(spanRTT, ix.id)
	ct.rtt.Store(o.id)
	err := f()
	o.close()
	ct.rtts++
	return err
}

// replayParse times sqlparser.Parse on a text the client sends, returning
// the parsed statement.
func (ct *connTrace) replayParse(ix openSpan, text string) (sqlparser.Statement, error) {
	o := ct.open(spanParse, ix.id)
	stmt, err := sqlparser.Parse(text)
	ct.parse += o.close()
	return stmt, err
}

// replayRewrite times the view selection and rewrite the deployment runs
// for a SELECT.
func (ct *connTrace) replayRewrite(ix openSpan, d *deployment, sel *sqlparser.SelectStmt) {
	o := ct.open(spanRewrite, ix.id)
	hit := rewriteUsesViews(d, sel)
	ct.rewrite += o.close()
	ct.selects++
	if hit {
		ct.viewHits++
	}
}

// serverCall is one Session call being timed on the server goroutine.
type serverCall struct {
	o    openSpan
	kind string
	snap sim.Stats
}

func (ct *connTrace) call(kind string, ctx *sim.Ctx) *serverCall {
	return &serverCall{o: ct.open(kind, ct.rtt.Load()), kind: kind, snap: ctx.Snapshot()}
}

func (c *serverCall) done(ctx *sim.Ctx) {
	wall := c.o.close()
	after := ctx.Snapshot()
	ct := c.o.ct
	ct.mu.Lock()
	defer ct.mu.Unlock()
	acc := ct.calls[c.kind]
	if acc == nil {
		acc = &callAcc{}
		ct.calls[c.kind] = acc
	}
	acc.n++
	acc.wall += wall
	acc.sim += after.Elapsed - c.snap.Elapsed
	w := &ct.work
	w.RPCs += after.RPCs - c.snap.RPCs
	w.RowsScanned += after.RowsScanned - c.snap.RowsScanned
	w.BytesMoved += after.BytesMoved - c.snap.BytesMoved
	w.Locks += after.Locks - c.snap.Locks
	w.Restarts += after.Restarts - c.snap.Restarts
	w.QueueWaitTime += after.QueueWaitTime - c.snap.QueueWaitTime
}

// tracedSession times the Session calls the server makes for one
// connection's statements. The sim.Ctx each call receives is the
// connection's, so its Snapshot before and after is the work done inside
// the call. The materialized Query, which the server uses only under
// SET synergy_stream=0, passes through untimed.
type tracedSession struct {
	server.Session
	ct *connTrace
}

func (s *tracedSession) timed(kind string, ctx *sim.Ctx, f func() error) error {
	c := s.ct.call(kind, ctx)
	err := f()
	c.done(ctx)
	return err
}

// QueryStream times the call through the cursor's Close, so the drain is
// part of the query span.
func (s *tracedSession) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	c := s.ct.call(spanQuery, ctx)
	cur, err := s.Session.QueryStream(ctx, sel, params)
	if err != nil {
		c.done(ctx)
		return nil, err
	}
	tc := &tracedCursor{RowCursor: cur, c: c}
	// Keep the raw-cell capability visible, so the server encodes rows on
	// the same path as an untraced connection.
	if raw, ok := cur.(phoenix.RawCursor); ok {
		return tracedRawCursor{tc, raw}, nil
	}
	return tc, nil
}

func (s *tracedSession) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	return s.timed(spanExec, ctx, func() error { return s.Session.Exec(ctx, stmt, params) })
}

func (s *tracedSession) Begin(ctx *sim.Ctx) error {
	return s.timed(spanBegin, ctx, func() error { return s.Session.Begin(ctx) })
}

func (s *tracedSession) Commit(ctx *sim.Ctx) error {
	return s.timed(spanCommit, ctx, func() error { return s.Session.Commit(ctx) })
}

func (s *tracedSession) Rollback(ctx *sim.Ctx) error {
	return s.timed(spanRollback, ctx, func() error { return s.Session.Rollback(ctx) })
}

type tracedCursor struct {
	phoenix.RowCursor
	c      *serverCall
	closed bool
}

// Close ends the query span on its first call (the server closes twice).
func (t *tracedCursor) Close(ctx *sim.Ctx) error {
	err := t.RowCursor.Close(ctx)
	if !t.closed {
		t.closed = true
		t.c.done(ctx)
	}
	return err
}

type tracedRawCursor struct {
	*tracedCursor
	raw phoenix.RawCursor
}

func (t tracedRawCursor) RawValue(i int) []byte { return t.raw.RawValue(i) }

// countingConn counts the bytes a client connection moves. Only the client
// goroutine reads and writes it.
type countingConn struct {
	net.Conn
	n int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n += int64(n)
	return n, err
}

// selfTimes returns, per span name, the number of spans and the summed self
// time: each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]*callAcc {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*callAcc{}
	for _, s := range spans {
		acc := out[s.Name]
		if acc == nil {
			acc = &callAcc{}
			out[s.Name] = acc
		}
		acc.n++
		acc.wall += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
