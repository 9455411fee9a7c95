package phoenix

import (
	"fmt"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Engine executes SQL against the catalog's store, as the client-embedded
// Phoenix JDBC driver does: it "transforms the SQL query into a series of
// HBase scans and coordinates the execution of scans" (§II-D). Join,
// aggregation and sort work happens client-side and is charged to the
// request context via the cost model.
type Engine struct {
	cat    *Catalog
	client *hbase.Client
	costs  *sim.Costs
}

// NewEngine returns an engine with a warm store client (long-running
// application servers hold warm connections; the cold-client path is
// exercised explicitly by the Figure 11 experiment).
func NewEngine(cat *Catalog) *Engine {
	return &Engine{cat: cat, client: cat.Store().NewWarmClient(), costs: cat.Store().Costs()}
}

// NewEngineWithClient returns an engine bound to a specific (possibly cold)
// client.
func NewEngineWithClient(cat *Catalog, client *hbase.Client) *Engine {
	return &Engine{cat: cat, client: client, costs: cat.Store().Costs()}
}

// Client exposes the engine's store client.
func (e *Engine) Client() *hbase.Client { return e.client }

// Catalog exposes the engine's catalog.
func (e *Engine) Catalog() *Catalog { return e.cat }

// QueryOpts control read execution.
type QueryOpts struct {
	// Read applies MVCC visibility filters to every scan and get.
	Read hbase.ReadOpts
	// DirtyCheck enables the Synergy read-committed protocol (§VIII-C):
	// scans over views re-start when they observe a dirty-marked row.
	DirtyCheck bool
	// MaxRestarts bounds dirty-read restarts (0 = default 50).
	MaxRestarts int
	// View, when set, overlays a transaction's buffered writes on every
	// scan and point lookup, so queries inside a multi-statement
	// transaction read their own uncommitted rows.
	View *hbase.ReadView
	// Reader, when set, serves every scan and point lookup instead of View
	// or the store client. OCC transactions thread their read-set-tracking
	// reader (wrapping the overlay view) through it, so the openScan choke
	// point records every range the query touched.
	Reader hbase.Reader
	// OnViewScan, when set, runs before a materialized view's rows are
	// fetched (once per view access — scan or index-nested-loop probe
	// phase). Synergy threads its asynchronous-maintenance freshness gate
	// through it: observing staleness in ReadStale mode, or erroring if a
	// view that should have been waited on is still behind.
	OnViewScan func(ctx *sim.Ctx, view string) error
}

// ResultSet is the client-visible output of a query.
type ResultSet struct {
	Columns []string
	Rows    []schema.Row
}

// ColumnTypes infers the result's column types from its values: the first
// non-NULL value of each column decides (int64 → TInt, float64 → TFloat,
// string → TString); an all-NULL column defaults to TString. The executor
// does not thread declared types through projection — aggregates and
// rewrites synthesize columns — so wire servers type result sets by
// inspection.
func (rs *ResultSet) ColumnTypes() []schema.ColType {
	out := make([]schema.ColType, len(rs.Columns))
	for i, col := range rs.Columns {
		out[i] = schema.TString
		for _, r := range rs.Rows {
			switch r[col].(type) {
			case int64:
				out[i] = schema.TInt
			case float64:
				out[i] = schema.TFloat
			case string:
				out[i] = schema.TString
			default:
				continue
			}
			break
		}
	}
	return out
}

// tuple is the executor's internal row representation, keyed
// "binding.column".
type tuple map[string]schema.Value

// ---------------------------------------------------------------------------
// Analysis

type binding struct {
	name    string
	info    *TableInfo // nil for derived tables
	derived []tuple    // materialized derived-table rows (plain col keys)
	cols    []string   // column names this binding exposes
}

func (b *binding) hasColumn(col string) bool {
	if b.info != nil {
		return b.info.HasColumn(col)
	}
	for _, c := range b.cols {
		if c == col {
			return true
		}
	}
	return false
}

// boundPred is a predicate with column refs resolved to bindings and
// params/literals resolved to values.
type boundPred struct {
	lBind, lCol string // left column (always set)
	op          sqlparser.CompareOp
	rBind, rCol string       // right column when join
	value       schema.Value // right value when not a join
	isJoin      bool
}

func (p boundPred) String() string {
	if p.isJoin {
		return fmt.Sprintf("%s.%s %s %s.%s", p.lBind, p.lCol, p.op, p.rBind, p.rCol)
	}
	return fmt.Sprintf("%s.%s %s %v", p.lBind, p.lCol, p.op, p.value)
}

type query struct {
	eng      *Engine
	sel      *sqlparser.SelectStmt
	params   []schema.Value
	opts     QueryOpts
	bindings []*binding
	byName   map[string]*binding
	local    map[string][]boundPred // binding -> single-binding predicates
	joins    []boundPred            // cross-binding equi-joins
	residual []boundPred            // everything else cross-binding
}

// analyzeStmt resolves FROM bindings (executing derived tables against the
// caller's ctx so their cost lands on the request) and classifies WHERE
// predicates into per-binding filters, equi-joins and residual conditions.
func (e *Engine) analyzeStmt(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value, opts QueryOpts) (*query, error) {
	q := &query{
		eng:    e,
		sel:    sel,
		params: params,
		opts:   opts,
		byName: map[string]*binding{},
		local:  map[string][]boundPred{},
	}
	for _, ref := range sel.From {
		b := &binding{name: ref.Binding()}
		if ref.Sub != nil {
			var rs *ResultSet
			cur, err := e.QueryStreamOpts(ctx, ref.Sub, params, opts)
			if err == nil {
				rs, err = DrainCursor(ctx, cur)
			}
			if err != nil {
				return nil, fmt.Errorf("phoenix: derived table %s: %w", b.name, err)
			}
			b.cols = rs.Columns
			b.derived = make([]tuple, len(rs.Rows))
			for i, row := range rs.Rows {
				t := make(tuple, len(row))
				for k, v := range row {
					t[b.name+"."+k] = v
				}
				b.derived[i] = t
			}
		} else {
			info, err := e.cat.Table(ref.Name)
			if err != nil {
				return nil, err
			}
			b.info = info
			b.cols = info.ColumnNames()
		}
		if _, dup := q.byName[b.name]; dup {
			return nil, fmt.Errorf("phoenix: duplicate binding %q", b.name)
		}
		q.bindings = append(q.bindings, b)
		q.byName[b.name] = b
	}
	for _, pred := range sel.Where {
		if err := q.bindPredicate(pred); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// resolveColumn finds the binding that owns a column reference.
func (q *query) resolveColumn(c sqlparser.ColumnRef) (*binding, error) {
	if c.Table != "" {
		b := q.byName[c.Table]
		if b == nil {
			return nil, fmt.Errorf("%w: unknown table or alias %q", ErrUnknownTable, c.Table)
		}
		if !b.hasColumn(c.Column) {
			return nil, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, c.Table, c.Column)
		}
		return b, nil
	}
	var owner *binding
	for _, b := range q.bindings {
		if b.hasColumn(c.Column) {
			if owner != nil {
				return nil, fmt.Errorf("%w: %q is ambiguous", ErrUnknownColumn, c.Column)
			}
			owner = b
		}
	}
	if owner == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownColumn, c.Column)
	}
	return owner, nil
}

func (q *query) evalOperand(e sqlparser.Expr) (schema.Value, error) {
	switch x := e.(type) {
	case sqlparser.Literal:
		return x.Value, nil
	case sqlparser.Param:
		if x.Index >= len(q.params) {
			return nil, fmt.Errorf("phoenix: missing parameter %d", x.Index)
		}
		return q.params[x.Index], nil
	default:
		return nil, fmt.Errorf("phoenix: unsupported operand %T", e)
	}
}

func (q *query) bindPredicate(p sqlparser.Predicate) error {
	lcol, lIsCol := p.Left.(sqlparser.ColumnRef)
	rcol, rIsCol := p.Right.(sqlparser.ColumnRef)
	switch {
	case lIsCol && rIsCol:
		lb, err := q.resolveColumn(lcol)
		if err != nil {
			return err
		}
		rb, err := q.resolveColumn(rcol)
		if err != nil {
			return err
		}
		bp := boundPred{
			lBind: lb.name, lCol: lcol.Column, op: p.Op,
			rBind: rb.name, rCol: rcol.Column, isJoin: true,
		}
		if lb == rb {
			// Same-binding column comparison: a local filter.
			q.local[lb.name] = append(q.local[lb.name], bp)
			return nil
		}
		if p.Op == sqlparser.OpEq {
			q.joins = append(q.joins, bp)
		} else {
			q.residual = append(q.residual, bp)
		}
		return nil
	case lIsCol:
		lb, err := q.resolveColumn(lcol)
		if err != nil {
			return err
		}
		v, err := q.evalOperand(p.Right)
		if err != nil {
			return err
		}
		q.local[lb.name] = append(q.local[lb.name], boundPred{lBind: lb.name, lCol: lcol.Column, op: p.Op, value: v})
		return nil
	case rIsCol:
		rb, err := q.resolveColumn(rcol)
		if err != nil {
			return err
		}
		v, err := q.evalOperand(p.Left)
		if err != nil {
			return err
		}
		q.local[rb.name] = append(q.local[rb.name], boundPred{lBind: rb.name, lCol: rcol.Column, op: flipOp(p.Op), value: v})
		return nil
	default:
		return fmt.Errorf("phoenix: predicate %s compares two constants", p)
	}
}

func flipOp(op sqlparser.CompareOp) sqlparser.CompareOp {
	switch op {
	case sqlparser.OpLt:
		return sqlparser.OpGt
	case sqlparser.OpLe:
		return sqlparser.OpGe
	case sqlparser.OpGt:
		return sqlparser.OpLt
	case sqlparser.OpGe:
		return sqlparser.OpLe
	default:
		return op
	}
}

func compareOK(cmp int, op sqlparser.CompareOp) bool {
	switch op {
	case sqlparser.OpEq:
		return cmp == 0
	case sqlparser.OpNe:
		return cmp != 0
	case sqlparser.OpLt:
		return cmp < 0
	case sqlparser.OpLe:
		return cmp <= 0
	case sqlparser.OpGt:
		return cmp > 0
	case sqlparser.OpGe:
		return cmp >= 0
	default:
		return false
	}
}

func (p boundPred) evalLocal(row schema.Row) bool {
	if p.isJoin { // same-binding column comparison
		return compareOK(schema.CompareValues(row[p.lCol], row[p.rCol]), p.op)
	}
	v, ok := row[p.lCol]
	if !ok || v == nil {
		return false
	}
	return compareOK(schema.CompareValues(v, p.value), p.op)
}

func (p boundPred) evalTuple(t tuple) bool {
	l := t[p.lBind+"."+p.lCol]
	if p.isJoin {
		return compareOK(schema.CompareValues(l, t[p.rBind+"."+p.rCol]), p.op)
	}
	return compareOK(schema.CompareValues(l, p.value), p.op)
}
