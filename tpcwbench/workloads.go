package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"synergy/internal/core"
	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/tpcw"
)

// browseDeck is one pass of a browse connection's statement deck: every
// read (Q1-Q11, R1-R4) once and one write drawn from W1-W13, shuffled.
// Fixing the mix within every sixteen interactions (6.25% writes) keeps
// the share of each statement, and so where the median falls among them,
// the same in every run.
var browseDeck = len(browseReads) + 1

// outcome folds a statement error into the sample: a MySQL error fails the
// interaction, anything else (a broken connection) ends the run.
func outcome(s sample, err error) (sample, error) {
	if err == nil {
		return s, nil
	}
	code, ok := errCode(err)
	if !ok {
		return s, err
	}
	s.code = code
	return s, nil
}

// drain reads a streamed result to its end, passing each row packet to
// each (when set). ttfr is measured from start to the first row, or to the
// end of an empty result.
func drain(rows *server.ClientRows, start time.Time, ct *connTrace, each func([]byte)) (n int, ttfr time.Duration, err error) {
	for rows.Next() {
		if n == 0 {
			ttfr = time.Since(start)
		}
		n++
		if each != nil {
			each(rows.RawBytes())
		}
	}
	if n == 0 {
		ttfr = time.Since(start)
	}
	if ct != nil {
		ct.rowsReceived += int64(n)
	}
	return n, ttfr, rows.Err()
}

// rewriteUsesViews replays the view selection and rewrite a deployment
// runs for a SELECT it has not seen before, reporting whether the rewrite
// reads a view.
func rewriteUsesViews(d *deployment, sel *sqlparser.SelectStmt) bool {
	des := d.sys.Design
	var mat []*core.View
	for _, v := range core.SelectViewsForQuery(des.Schema, des.Candidates.Trees, sel) {
		if fv := des.ViewByName(v.Name()); fv != nil {
			mat = append(mat, fv)
		}
	}
	return core.RewriteQuery(sel, mat).UsesViews()
}

// idSlots is how many connections one deployment serves over a run: a
// traced run opens a fresh set for its traced phase.
const idSlots = 2 * conns

// idSpace gives a connection its own ids for the rows it inserts, so its
// parameter stream does not depend on how the connections interleave (the
// tpcw generators draw them from counters shared by all connections).
type idSpace struct {
	slot int
	base map[string]int64
	n    map[string]int64
}

func newIDSpace(slot int, card tpcw.Cardinalities) *idSpace {
	return &idSpace{slot: slot, n: map[string]int64{}, base: map[string]int64{
		"W1": int64(card.Orders),
		"W3": 100, // generated orders have at most 5 lines
		"W4": int64(card.Customers),
		"W5": int64(card.Addresses),
		"W6": int64(card.Carts),
	}}
}

func (s *idSpace) draw(stmt string) int64 {
	n := s.n[stmt]
	s.n[stmt] = n + 1
	return s.base[stmt] + 1 + int64(s.slot) + idSlots*n
}

// fresh replaces the generator-drawn new-row id of an insert.
func (s *idSpace) fresh(stmt string, p []schema.Value) []schema.Value {
	switch stmt {
	case "W1", "W5", "W6":
		p[0] = s.draw(stmt)
	case "W3":
		p[1] = s.draw(stmt)
	case "W4":
		id := s.draw(stmt)
		p[0], p[1] = id, tpcw.Uname(id)
	}
	return p
}

// literalSQL substitutes the parameters into the template's placeholders as
// SQL literals, for the text protocol.
func literalSQL(tmpl string, params []schema.Value) (string, error) {
	var b strings.Builder
	i := 0
	for _, r := range tmpl {
		if r != '?' {
			b.WriteRune(r)
			continue
		}
		if i >= len(params) {
			return "", fmt.Errorf("template has more placeholders than %d parameters", len(params))
		}
		switch v := params[i].(type) {
		case nil:
			b.WriteString("NULL")
		case int64:
			b.WriteString(strconv.FormatInt(v, 10))
		case float64:
			// A float literal keeps its point, so it parses as a float.
			s := strconv.FormatFloat(v, 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += ".0"
			}
			b.WriteString(s)
		case string:
			b.WriteString("'" + strings.ReplaceAll(v, "'", "''") + "'")
		default:
			return "", fmt.Errorf("unsupported parameter type %T", v)
		}
		i++
	}
	if i != len(params) {
		return "", fmt.Errorf("template has %d placeholders for %d parameters", i, len(params))
	}
	return b.String(), nil
}

// ---------------------------------------------------------------------------
// browse: TPC-W browsing, autocommit statements over the text protocol.

var (
	browseReads  = append(tpcw.JoinQueries(), tpcw.PointReads()...)
	browseWrites = tpcw.WriteStatements()
)

type browseConn struct {
	c   *server.Client
	d   *deployment
	ct  *connTrace
	rng *sim.RNG
	ids *idSpace
	// deck holds what is left of the connection's current browseDeck pass.
	deck []int
	// selects holds every SELECT text that succeeded, for the output check.
	selects []string
}

func (b *browseConn) interaction() (sample, error) {
	if len(b.deck) == 0 {
		b.deck = b.rng.Perm(browseDeck)
	}
	var st tpcw.Stmt
	if i := b.deck[0]; i < len(browseReads) {
		st = browseReads[i]
	} else {
		st = browseWrites[b.rng.Intn(len(browseWrites))]
	}
	b.deck = b.deck[1:]
	text, err := literalSQL(st.SQL, b.ids.fresh(st.ID, st.Params(b.d.data, b.rng)))
	if err != nil {
		return sample{}, fmt.Errorf("%s: %w", st.ID, err)
	}
	ix := b.ct.beginInteraction()
	defer b.ct.endInteraction(ix)
	if b.ct != nil {
		stmt, err := b.ct.replayParse(ix, text)
		if err != nil {
			return sample{}, fmt.Errorf("%s: %w", st.ID, err)
		}
		if sel, ok := stmt.(*sqlparser.SelectStmt); ok {
			b.ct.replayRewrite(ix, b.d, sel)
		}
	}
	var s sample
	start := time.Now()
	err = b.ct.roundTrip(ix, func() error {
		if st.Kind == tpcw.KindWrite {
			return b.c.Exec(text)
		}
		rows, err := b.c.QueryStream(text)
		if err != nil {
			return err
		}
		_, s.ttfr, err = drain(rows, start, b.ct, nil)
		return err
	})
	s.wall = time.Since(start)
	if err == nil && st.Kind != tpcw.KindWrite {
		b.selects = append(b.selects, text)
	}
	return outcome(s, err)
}

// ---------------------------------------------------------------------------
// order: TPC-W buy-confirm transactions through prepared statements.

// orderStmts are the statements a buy-confirm transaction prepares.
var orderStmts = []string{"W1", "W2", "W3", "W9", "W13", "Q8"}

// order is one buy-confirm transaction's new order and its lines.
type order struct {
	id    int64
	lines []orderLine
}

type orderLine struct{ id, item, qty int64 }

type orderConn struct {
	c     *server.Client
	d     *deployment
	ct    *connTrace
	rng   *sim.RNG
	ids   *idSpace
	stmts map[string]tpcw.Stmt
	prep  map[string]*server.ClientStmt
	q8    *sqlparser.SelectStmt // for the rewrite replay
	// disjoint confines the customer and items a transaction writes to
	// the connection's own share of them (see own), so no two concurrent
	// transactions write the same row.
	disjoint bool

	committed []order
	failed    []int64 // orders of transactions rolled back before COMMIT
	// inDoubt holds transactions whose COMMIT returned an error: the
	// server may have applied them before failing.
	inDoubt []order
}

func newOrderConn(c *server.Client, d *deployment, ct *connTrace, rng *sim.RNG, idx int, disjoint bool) (*orderConn, error) {
	o := &orderConn{c: c, d: d, ct: ct, rng: rng, ids: newIDSpace(idx, d.data.Card),
		stmts: map[string]tpcw.Stmt{}, prep: map[string]*server.ClientStmt{}, disjoint: disjoint}
	for _, id := range orderStmts {
		st, ok := tpcw.StatementByID(id)
		if !ok {
			return nil, fmt.Errorf("no TPC-W statement %s", id)
		}
		ps, err := c.Prepare(st.SQL)
		if err != nil {
			return nil, fmt.Errorf("preparing %s: %w", id, err)
		}
		o.stmts[id], o.prep[id] = st, ps
	}
	q8, err := sqlparser.Parse(o.stmts["Q8"].SQL)
	if err != nil {
		return nil, err
	}
	o.q8 = q8.(*sqlparser.SelectStmt)
	return o, nil
}

func (o *orderConn) params(id string) []schema.Value {
	return o.ids.fresh(id, o.stmts[id].Params(o.d.data, o.rng))
}

// own maps an id in 1..n drawn by the generator to the nearest id of the
// connection's share: the ids congruent to its slot modulo conns. The
// connections of one phase hold distinct slots modulo conns.
func (o *orderConn) own(v schema.Value, n int) int64 {
	id := v.(int64)
	if !o.disjoint {
		return id
	}
	k := (id-1)/conns*conns + int64(o.ids.slot%conns)
	if k >= int64(n) {
		k -= conns
	}
	return k + 1
}

// interaction runs BEGIN, W1, 1-3 x W3, W2, W9, W13, the Q8 cart read and
// COMMIT. Every parameter is drawn before the first statement is sent, so
// the stream does not depend on which transactions fail.
func (o *orderConn) interaction() (sample, error) {
	card := o.d.data.Card
	w1 := o.params("W1")
	w1[1] = o.own(w1[1], card.Customers)
	ord := order{id: w1[0].(int64)}
	w3 := make([][]schema.Value, 1+o.rng.Intn(3))
	for j := range w3 {
		p := o.params("W3")
		p[0], p[1], p[2] = ord.id, int64(j+1), o.own(p[2], card.Items)
		w3[j] = p
		ord.lines = append(ord.lines, orderLine{id: int64(j + 1), item: p[2].(int64), qty: p[3].(int64)})
	}
	w2 := o.params("W2")
	w2[0] = ord.id
	w9 := o.params("W9")
	w9[1] = o.own(w9[1], card.Items)
	w13 := o.params("W13")
	w13[4] = w1[1] // the ordering customer
	cart := o.d.data.CartLines[o.rng.Intn(len(o.d.data.CartLines))][0]

	ix := o.ct.beginInteraction()
	defer o.ct.endInteraction(ix)
	var s sample
	start := time.Now()
	rt := func(f func() error) error { return o.ct.roundTrip(ix, f) }
	began := rt(o.c.Begin)
	err := began
	// do runs the next statement unless an earlier one failed.
	do := func(id string, p []schema.Value) {
		if err == nil {
			err = rt(func() error { return o.prep[id].Exec(p...) })
		}
	}
	do("W1", w1)
	for _, p := range w3 {
		do("W3", p)
	}
	do("W2", w2)
	do("W9", w9)
	do("W13", w13)
	if err == nil {
		if o.ct != nil {
			o.ct.replayRewrite(ix, o.d, o.q8)
		}
		err = rt(func() error {
			sent := time.Now()
			rows, err := o.prep["Q8"].QueryStream(cart)
			if err != nil {
				return err
			}
			_, s.ttfr, err = drain(rows, sent, o.ct, nil)
			return err
		})
	}
	atCommit := false
	switch {
	case began != nil:
	case err != nil:
		// The session may still hold the transaction open (a failed read
		// does not end it); end it before the next.
		if rerr := rt(o.c.Rollback); rerr != nil {
			if _, ok := errCode(rerr); !ok {
				return s, rerr
			}
		}
	default:
		err, atCommit = rt(o.c.Commit), true
	}
	s.wall = time.Since(start)
	switch {
	case err == nil:
		o.committed = append(o.committed, ord)
	case atCommit:
		o.inDoubt = append(o.inDoubt, ord)
	default:
		o.failed = append(o.failed, ord.id)
	}
	return outcome(s, err)
}

// ---------------------------------------------------------------------------
// scan: Figure 9's Q1 and Q2 as streamed SELECTs over Figure 8's schema.

var scanQueries = []string{tpcw.MicroQ1, tpcw.MicroQ2}

// scanResult is what one scan returned: its row count and an
// order-independent checksum of its row packets.
type scanResult struct {
	query int
	rows  int
	sum   uint64
}

type scanConn struct {
	c   *server.Client
	d   *deployment
	ct  *connTrace
	idx int
	n   int

	results []scanResult
}

// rowSum adds the FNV-64a hash of each row packet: a checksum of the rows
// that does not depend on the order the region scans deliver them in.
type rowSum struct {
	h   hash.Hash64
	sum uint64
}

func newRowSum() *rowSum { return &rowSum{h: fnv.New64a()} }

func (r *rowSum) add(p []byte) {
	r.h.Reset()
	r.h.Write(p)
	r.sum += r.h.Sum64()
}

// interaction runs one scan: Q1 once in four scans of a connection, Q2
// otherwise, the connections half a cycle apart. Q2's scans hold both
// percentiles, Q1's the lowest quarter.
func (sc *scanConn) interaction() (sample, error) {
	q := 1
	if (sc.n+2*sc.idx)%4 == 0 {
		q = 0
	}
	sc.n++
	text := scanQueries[q]
	ix := sc.ct.beginInteraction()
	defer sc.ct.endInteraction(ix)
	if sc.ct != nil {
		stmt, err := sc.ct.replayParse(ix, text)
		if err != nil {
			return sample{}, err
		}
		sc.ct.replayRewrite(ix, sc.d, stmt.(*sqlparser.SelectStmt))
	}
	var s sample
	sum := newRowSum()
	var n int
	start := time.Now()
	err := sc.ct.roundTrip(ix, func() error {
		rows, err := sc.c.QueryStream(text)
		if err != nil {
			return err
		}
		n, s.ttfr, err = drain(rows, start, sc.ct, sum.add)
		return err
	})
	s.wall = time.Since(start)
	if err == nil {
		sc.results = append(sc.results, scanResult{query: q, rows: n, sum: sum.sum})
	}
	return outcome(s, err)
}
