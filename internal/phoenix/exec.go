package phoenix

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// ---------------------------------------------------------------------------
// Access paths

type accessKind int

const (
	accessFullScan accessKind = iota
	accessPKPrefix
	accessIndexPrefix
)

// accessPlan is how a table binding's rows are fetched.
type accessPlan struct {
	kind    accessKind
	index   *IndexInfo     // for accessIndexPrefix
	eqCols  []string       // leading key columns bound by equality
	eqVals  []schema.Value // their values
	rowsEst int
}

// chooseAccess picks the cheapest access path for a binding given its local
// equality predicates. extraEq supplies join-derived equalities (for INL
// probes).
func (q *query) chooseAccess(b *binding, extraEqCols []string) accessPlan {
	eq := map[string]bool{}
	for _, p := range q.local[b.name] {
		if !p.isJoin && p.op == sqlparser.OpEq {
			eq[p.lCol] = true
		}
	}
	for _, c := range extraEqCols {
		eq[c] = true
	}
	est := q.eng.cat.Store().RowEstimate(b.info.Name)
	if est < 1 {
		est = 1
	}
	best := accessPlan{kind: accessFullScan, rowsEst: est}

	consider := func(keyCols []string, idx *IndexInfo) {
		n := 0
		for _, k := range keyCols {
			if !eq[k] {
				break
			}
			n++
		}
		if n == 0 {
			return
		}
		// Selectivity heuristic: each bound key column divides the
		// table; a fully bound key yields ~1 row.
		rows := est
		if n == len(keyCols) {
			rows = 1
		} else {
			for i := 0; i < n && rows > 1; i++ {
				rows = rows / 100
			}
			if rows < 1 {
				rows = 1
			}
		}
		kind := accessPKPrefix
		if idx != nil {
			kind = accessIndexPrefix
		}
		if rows < best.rowsEst || (rows == best.rowsEst && best.kind == accessFullScan) {
			best = accessPlan{kind: kind, index: idx, eqCols: keyCols[:n], rowsEst: rows}
		}
	}

	consider(b.info.Key, nil)
	for _, idx := range b.info.Indexes {
		if idx.KeyOnly {
			continue // maintenance indexes cannot answer queries
		}
		full := append(append([]string(nil), idx.On...), b.info.Key...)
		consider(full, idx)
	}
	return best
}

// localEqValue returns the value bound to col by a local equality predicate.
func (q *query) localEqValue(b *binding, col string) (schema.Value, bool) {
	for _, p := range q.local[b.name] {
		if !p.isJoin && p.op == sqlparser.OpEq && p.lCol == col {
			return p.value, true
		}
	}
	return nil, false
}

// openScan opens a binding scan through the query's reader: an explicit
// Reader when one is set (an OCC transaction's tracking view), else the
// transaction overlay view (read-your-writes), else the plain store client.
// Every table read of a query funnels through here, which is what makes it
// the read-set capture choke point.
func (q *query) openScan(ctx *sim.Ctx, tbl string, spec hbase.ScanSpec) (hbase.RowStream, error) {
	if q.opts.Reader != nil {
		return q.opts.Reader.OpenScan(ctx, tbl, spec)
	}
	if q.opts.View != nil {
		return q.opts.View.OpenScan(ctx, tbl, spec)
	}
	return q.eng.client.Scan(ctx, tbl, spec)
}

// scanBinding fetches a binding's rows via its access plan, applying all
// local predicates (pushed down server-side) and converting to tuples.
func (q *query) scanBinding(ctx *sim.Ctx, b *binding, plan accessPlan) ([]tuple, error) {
	if b.derived != nil {
		out := make([]tuple, 0, len(b.derived))
		for _, t := range b.derived {
			ok := true
			for _, p := range q.local[b.name] {
				row := make(schema.Row, len(t))
				for k, v := range t {
					row[strings.TrimPrefix(k, b.name+".")] = v
				}
				if !p.evalLocal(row) {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, t)
			}
		}
		return out, nil
	}

	spec := hbase.ScanSpec{Read: q.opts.Read}
	tableName := b.info.Name
	switch plan.kind {
	case accessPKPrefix:
		vals := make([]schema.Value, 0, len(plan.eqCols))
		for _, c := range plan.eqCols {
			v, ok := q.localEqValue(b, c)
			if !ok {
				return nil, fmt.Errorf("phoenix: internal: missing eq value for %s.%s", b.name, c)
			}
			vals = append(vals, v)
		}
		if len(plan.eqCols) == len(b.info.Key) {
			spec.Start = schema.EncodeKey(vals...)
			spec.Stop = spec.Start + "\x00"
			spec.Sequential = true // single-row point lookup
		} else {
			spec.Prefix = schema.KeyPrefix(vals...)
		}
	case accessIndexPrefix:
		tableName = plan.index.Name
		vals := make([]schema.Value, 0, len(plan.eqCols))
		for _, c := range plan.eqCols {
			v, ok := q.localEqValue(b, c)
			if !ok {
				return nil, fmt.Errorf("phoenix: internal: missing eq value for %s.%s", b.name, c)
			}
			vals = append(vals, v)
		}
		spec.Prefix = schema.KeyPrefix(vals...)
		if len(plan.eqCols) == len(plan.index.On)+len(b.info.Key) {
			spec.Prefix = ""
			spec.Start = schema.EncodeKey(vals...)
			spec.Stop = spec.Start + "\x00"
			spec.Sequential = true // single-row point lookup
		}
	}
	// Full table and index-range scans scatter-gather across regions
	// (Phoenix intra-query parallelism); point lookups above opt out.

	// A scan with no local predicates ships no filter at all: the region
	// returns every visible row without the per-row decode an accept-all
	// closure would pay.
	if local := q.local[b.name]; len(local) > 0 {
		spec.Filter = func(r hbase.RowResult) bool {
			row := CellsToRow(r)
			for _, p := range local {
				if !p.evalLocal(row) {
					return false
				}
			}
			return true
		}
	}

	if b.info.IsView && q.opts.OnViewScan != nil {
		if err := q.opts.OnViewScan(ctx, b.info.Name); err != nil {
			return nil, err
		}
	}

	dirtyChecked := q.opts.DirtyCheck && b.info.IsView
	maxRestarts := q.opts.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 50
	}
	for attempt := 0; ; attempt++ {
		sc, err := q.openScan(ctx, tableName, spec)
		if err != nil {
			return nil, err
		}
		var out []tuple
		dirty := false
		for {
			r, ok := sc.Next(ctx)
			if !ok {
				break
			}
			if dirtyChecked && IsDirty(r) {
				dirty = true
				sc.Close(ctx) // abandon in-flight region fetches
				break
			}
			row := CellsToRow(r)
			t := make(tuple, len(row))
			for k, v := range row {
				t[b.name+"."+k] = v
			}
			out = append(out, t)
		}
		if !dirty {
			return out, nil
		}
		// §VIII-C: "if a marked row is present ... re-scan".
		ctx.CountRestart()
		ctx.Charge(q.eng.costs.DirtyRestartPenalty)
		if attempt+1 >= maxRestarts {
			return nil, fmt.Errorf("%w: %s after %d restarts", ErrDirtyRead, tableName, attempt+1)
		}
		// Back off in wall-clock time too, growing with each attempt, so
		// a marking writer that was descheduled mid-update gets to un-mark
		// before the budget is spent: immediate re-scans could burn every
		// restart inside one of its scheduling gaps.
		time.Sleep(time.Duration(attempt+1) * 10 * time.Microsecond)
	}
}

// ---------------------------------------------------------------------------
// Join execution

func (q *query) run(ctx *sim.Ctx) ([]tuple, error) {
	if len(q.bindings) == 0 {
		return nil, fmt.Errorf("phoenix: no FROM bindings")
	}
	// Pick the start binding: cheapest access.
	type cand struct {
		b    *binding
		plan accessPlan
	}
	var start cand
	for i, b := range q.bindings {
		var plan accessPlan
		if b.derived != nil {
			plan = accessPlan{kind: accessFullScan, rowsEst: len(b.derived)}
		} else {
			plan = q.chooseAccess(b, nil)
		}
		if i == 0 || plan.rowsEst < start.plan.rowsEst {
			start = cand{b: b, plan: plan}
		}
	}
	current, err := q.scanBinding(ctx, start.b, start.plan)
	if err != nil {
		return nil, err
	}
	joined := map[string]bool{start.b.name: true}
	remaining := make([]*binding, 0, len(q.bindings)-1)
	for _, b := range q.bindings {
		if b != start.b {
			remaining = append(remaining, b)
		}
	}

	for len(remaining) > 0 {
		// Prefer a binding connected to the joined set by equi-joins.
		picked := -1
		for i, b := range remaining {
			if len(q.joinCols(joined, b)) > 0 {
				picked = i
				break
			}
		}
		cartesian := false
		if picked < 0 {
			picked = 0
			cartesian = true
		}
		b := remaining[picked]
		remaining = append(remaining[:picked], remaining[picked+1:]...)

		if cartesian {
			current, err = q.cartesianJoin(ctx, current, b)
		} else {
			current, err = q.joinBinding(ctx, current, b, joined, len(remaining) > 0)
		}
		if err != nil {
			return nil, err
		}
		joined[b.name] = true
	}

	// Residual cross-binding predicates.
	if len(q.residual) > 0 {
		kept := current[:0]
		for _, t := range current {
			ok := true
			for _, p := range q.residual {
				if !p.evalTuple(t) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, t)
			}
		}
		current = kept
	}
	return current, nil
}

// joinCols returns pairs (outerKey, innerCol) of equi-join conditions
// linking the joined set to binding b.
func (q *query) joinCols(joined map[string]bool, b *binding) (pairs [][2]string) {
	for _, j := range q.joins {
		switch {
		case joined[j.lBind] && j.rBind == b.name:
			pairs = append(pairs, [2]string{j.lBind + "." + j.lCol, j.rCol})
		case joined[j.rBind] && j.lBind == b.name:
			pairs = append(pairs, [2]string{j.rBind + "." + j.rCol, j.lCol})
		}
	}
	return pairs
}

// joinBinding joins the current intermediate result with binding b. It uses
// an index nested-loop when the outer side is small and the inner side has a
// usable key; otherwise a client hash join over a full (filtered) scan, which
// is where the Phoenix join-algorithm cost of Figure 10 comes from.
func (q *query) joinBinding(ctx *sim.Ctx, outer []tuple, b *binding, joined map[string]bool, moreStages bool) ([]tuple, error) {
	pairs := q.joinCols(joined, b)
	innerCols := make([]string, len(pairs))
	outerKeys := make([]string, len(pairs))
	for i, p := range pairs {
		outerKeys[i], innerCols[i] = p[0], p[1]
	}

	if b.derived == nil && len(outer) > 0 && len(outer) <= q.eng.costs.INLThreshold {
		if plan, ok := q.inlPlan(b, innerCols); ok {
			return q.indexNestedLoop(ctx, outer, b, plan, outerKeys, innerCols)
		}
	}

	// Hash join: scan inner fully (with local filters pushed down), build
	// hash on inner, probe with outer.
	var innerPlan accessPlan
	if b.derived != nil {
		innerPlan = accessPlan{kind: accessFullScan, rowsEst: len(b.derived)}
	} else {
		innerPlan = q.chooseAccess(b, nil)
	}
	inner, err := q.scanBinding(ctx, b, innerPlan)
	if err != nil {
		return nil, err
	}
	costs := q.eng.costs
	build := make(map[string][]tuple, len(inner))
	for _, t := range inner {
		key := joinKey(t, b.name, innerCols)
		build[key] = append(build[key], t)
	}
	ctx.Charge(sim.Micros(int64(len(inner)) * int64(costs.JoinBuildRow)))

	var out []tuple
	for _, o := range outer {
		key := joinKeyQualified(o, outerKeys)
		for _, in := range build[key] {
			merged := make(tuple, len(o)+len(in))
			for k, v := range o {
				merged[k] = v
			}
			for k, v := range in {
				merged[k] = v
			}
			out = append(out, merged)
		}
	}
	ctx.Charge(sim.Micros(int64(len(outer)) * int64(costs.JoinProbeRow)))

	if moreStages && len(out) > 0 {
		// Intermediate result carried into another stage: materialize
		// and spill (§III: joins are expensive in the NoSQL store).
		var bytes int
		for _, t := range out {
			bytes += tupleBytes(t)
		}
		ctx.Charge(sim.Micros(int64(len(out)) * int64(costs.IntermediateRow)))
		ctx.Charge(costs.SpillPerByte.Mul(bytes))
	}
	return out, nil
}

// inlPlan checks whether binding b can be probed by key for the given join
// columns (plus its local equalities), returning the probe plan.
func (q *query) inlPlan(b *binding, joinCols []string) (accessPlan, bool) {
	plan := q.chooseAccess(b, joinCols)
	if plan.kind == accessFullScan || len(plan.eqCols) == 0 {
		return plan, false
	}
	// Every join column must be part of the bound prefix; otherwise the
	// probe would miss conditions (they are re-checked anyway, but an
	// unbound join column means the probe isn't selective).
	bound := map[string]bool{}
	for _, c := range plan.eqCols {
		bound[c] = true
	}
	for _, c := range joinCols {
		if !bound[c] {
			return plan, false
		}
	}
	return plan, true
}

// indexNestedLoop probes the inner table once per outer tuple using point
// gets / prefix scans.
func (q *query) indexNestedLoop(ctx *sim.Ctx, outer []tuple, b *binding, plan accessPlan, outerKeys, innerCols []string) ([]tuple, error) {
	joinVal := map[string]int{} // inner col -> index into outerKeys
	for i, c := range innerCols {
		joinVal[c] = i
	}
	if b.info.IsView && q.opts.OnViewScan != nil {
		if err := q.opts.OnViewScan(ctx, b.info.Name); err != nil {
			return nil, err
		}
	}
	tableName := b.info.Name
	if plan.kind == accessIndexPrefix {
		tableName = plan.index.Name
	}
	local := q.local[b.name]
	var out []tuple
	for _, o := range outer {
		vals := make([]schema.Value, 0, len(plan.eqCols))
		ok := true
		for _, c := range plan.eqCols {
			if i, isJoin := joinVal[c]; isJoin {
				vals = append(vals, o[outerKeys[i]])
				continue
			}
			v, has := q.localEqValue(b, c)
			if !has {
				ok = false
				break
			}
			vals = append(vals, v)
		}
		if !ok {
			return nil, fmt.Errorf("phoenix: internal: INL probe missing values")
		}
		// INL probes are per-outer-row point/short-prefix reads; the
		// scatter-gather fan-out would cost more than it overlaps.
		spec := hbase.ScanSpec{Prefix: schema.KeyPrefix(vals...), Read: q.opts.Read, Sequential: true}
		fullKey := (plan.kind == accessPKPrefix && len(plan.eqCols) == len(b.info.Key)) ||
			(plan.kind == accessIndexPrefix && len(plan.eqCols) == len(plan.index.On)+len(b.info.Key))
		if fullKey {
			spec.Prefix = ""
			spec.Start = schema.EncodeKey(vals...)
			spec.Stop = spec.Start + "\x00"
		}
		if len(local) > 0 {
			spec.Filter = func(r hbase.RowResult) bool {
				row := CellsToRow(r)
				for _, p := range local {
					if !p.evalLocal(row) {
						return false
					}
				}
				return true
			}
		}
		sc, err := q.openScan(ctx, tableName, spec)
		if err != nil {
			return nil, err
		}
		for {
			r, scanOK := sc.Next(ctx)
			if !scanOK {
				break
			}
			if q.opts.DirtyCheck && b.info.IsView && IsDirty(r) {
				// Point probes re-read the row rather than
				// restarting the whole join.
				ctx.CountRestart()
				ctx.Charge(q.eng.costs.DirtyRestartPenalty)
				continue
			}
			row := CellsToRow(r)
			merged := make(tuple, len(o)+len(row))
			for k, v := range o {
				merged[k] = v
			}
			for k, v := range row {
				merged[b.name+"."+k] = v
			}
			// Re-check join equality (defensive; prefix probes
			// guarantee it).
			match := true
			for i, c := range innerCols {
				if !schema.ValuesEqual(merged[b.name+"."+c], o[outerKeys[i]]) {
					match = false
					break
				}
			}
			if match {
				out = append(out, merged)
			}
		}
	}
	return out, nil
}

func (q *query) cartesianJoin(ctx *sim.Ctx, outer []tuple, b *binding) ([]tuple, error) {
	var plan accessPlan
	if b.derived != nil {
		plan = accessPlan{kind: accessFullScan, rowsEst: len(b.derived)}
	} else {
		plan = q.chooseAccess(b, nil)
	}
	inner, err := q.scanBinding(ctx, b, plan)
	if err != nil {
		return nil, err
	}
	costs := q.eng.costs
	var out []tuple
	for _, o := range outer {
		for _, in := range inner {
			merged := make(tuple, len(o)+len(in))
			for k, v := range o {
				merged[k] = v
			}
			for k, v := range in {
				merged[k] = v
			}
			out = append(out, merged)
		}
	}
	ctx.Charge(sim.Micros(int64(len(out)) * int64(costs.JoinProbeRow)))
	return out, nil
}

func joinKey(t tuple, bind string, cols []string) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(canonValue(t[bind+"."+c]))
	}
	return b.String()
}

func joinKeyQualified(t tuple, keys []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(canonValue(t[k]))
	}
	return b.String()
}

// canonValue renders a value so that int64(5) and float64(5) hash equal.
func canonValue(v schema.Value) string {
	switch x := v.(type) {
	case nil:
		return "\x00nil"
	case int64:
		return fmt.Sprintf("n%d", x)
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("n%d", int64(x))
		}
		return fmt.Sprintf("f%g", x)
	default:
		return fmt.Sprint(x)
	}
}

func tupleBytes(t tuple) int {
	n := 0
	for k, v := range t {
		n += len(k)
		switch x := v.(type) {
		case string:
			n += len(x)
		default:
			n += 9
		}
	}
	return n
}

// ---------------------------------------------------------------------------
// Aggregation, ordering, projection

func (q *query) project(ctx *sim.Ctx, tuples []tuple) (*ResultSet, error) {
	costs := q.eng.costs
	sel := q.sel

	if len(sel.GroupBy) > 0 || q.hasAggregates() {
		var err error
		tuples, err = q.aggregate(ctx, tuples)
		if err != nil {
			return nil, err
		}
	}

	if len(sel.OrderBy) > 0 {
		keys := make([]string, len(sel.OrderBy))
		for i, o := range sel.OrderBy {
			k, err := q.outputKey(o.Col, tuples)
			if err != nil {
				return nil, err
			}
			keys[i] = k
		}
		n := len(tuples)
		if n > 1 {
			ctx.Charge(sim.Micros(int64(n) * int64(bits.Len(uint(n))) * int64(costs.SortRow)))
		}
		sort.SliceStable(tuples, func(i, j int) bool {
			for k, key := range keys {
				cmp := schema.CompareValues(tuples[i][key], tuples[j][key])
				if cmp == 0 {
					continue
				}
				if sel.OrderBy[k].Desc {
					return cmp > 0
				}
				return cmp < 0
			}
			return false
		})
	}

	if sel.Limit > 0 && len(tuples) > sel.Limit {
		tuples = tuples[:sel.Limit]
	}

	return q.buildResult(tuples)
}

func (q *query) hasAggregates() bool {
	for _, it := range q.sel.Items {
		if _, ok := it.Expr.(sqlparser.AggExpr); ok {
			return true
		}
	}
	return false
}

// outputKey resolves a column reference against tuple keys. For aggregated
// tuples the key may be an output alias.
func (q *query) outputKey(c sqlparser.ColumnRef, tuples []tuple) (string, error) {
	if c.Table != "" {
		return c.Table + "." + c.Column, nil
	}
	// Alias of a select item?
	for _, it := range q.sel.Items {
		if it.Alias == c.Column {
			return c.Column, nil
		}
	}
	b, err := q.resolveColumn(c)
	if err != nil {
		// Fall back to a bare key (post-aggregation columns).
		if len(tuples) > 0 {
			if _, ok := tuples[0][c.Column]; ok {
				return c.Column, nil
			}
		}
		return "", err
	}
	return b.name + "." + c.Column, nil
}

// aggregate evaluates GROUP BY + aggregate select items. The output tuples
// carry group-by columns under their qualified keys and aggregates under
// their alias (or rendered expression).
func (q *query) aggregate(ctx *sim.Ctx, tuples []tuple) ([]tuple, error) {
	sel := q.sel
	costs := q.eng.costs
	groupKeys := make([]string, len(sel.GroupBy))
	for i, c := range sel.GroupBy {
		k, err := q.outputKey(c, tuples)
		if err != nil {
			return nil, err
		}
		groupKeys[i] = k
	}

	type aggState struct {
		rep    tuple
		counts map[string]int64
		sums   map[string]float64
		mins   map[string]schema.Value
		maxs   map[string]schema.Value
	}
	groups := map[string]*aggState{}
	var order []string

	aggItems := map[string]sqlparser.AggExpr{}
	for _, it := range sel.Items {
		agg, ok := it.Expr.(sqlparser.AggExpr)
		if !ok {
			continue
		}
		aggItems[q.aggOutputName(it)] = agg
	}

	for _, t := range tuples {
		var kb strings.Builder
		for _, gk := range groupKeys {
			kb.WriteString(canonValue(t[gk]))
			kb.WriteByte(0)
		}
		key := kb.String()
		st := groups[key]
		if st == nil {
			st = &aggState{
				rep:    t,
				counts: map[string]int64{},
				sums:   map[string]float64{},
				mins:   map[string]schema.Value{},
				maxs:   map[string]schema.Value{},
			}
			groups[key] = st
			order = append(order, key)
		}
		for name, agg := range aggItems {
			if agg.Star {
				st.counts[name]++
				continue
			}
			akey, err := q.outputKey(*agg.Arg, tuples)
			if err != nil {
				return nil, err
			}
			v := t[akey]
			if v == nil {
				continue
			}
			st.counts[name]++
			if f, ok := toFloat(v); ok {
				st.sums[name] += f
			}
			if cur, ok := st.mins[name]; !ok || schema.CompareValues(v, cur) < 0 {
				st.mins[name] = v
			}
			if cur, ok := st.maxs[name]; !ok || schema.CompareValues(v, cur) > 0 {
				st.maxs[name] = v
			}
		}
	}
	ctx.Charge(sim.Micros(int64(len(tuples)) * int64(costs.AggRow)))

	out := make([]tuple, 0, len(groups))
	for _, key := range order {
		st := groups[key]
		t := make(tuple)
		for _, gk := range groupKeys {
			t[gk] = st.rep[gk]
		}
		// Non-aggregate select items ride along from the group's
		// representative row (TPC-W queries select columns functionally
		// dependent on the group key, e.g. i_title with GROUP BY i_id).
		for _, it := range sel.Items {
			if c, ok := it.Expr.(sqlparser.ColumnRef); ok {
				if k, err := q.outputKey(c, tuples); err == nil {
					t[k] = st.rep[k]
				}
			}
		}
		for name, agg := range aggItems {
			switch agg.Fn {
			case "COUNT":
				t[name] = st.counts[name]
			case "SUM":
				if st.counts[name] > 0 {
					t[name] = normalizeSum(st.sums[name])
				}
			case "AVG":
				if st.counts[name] > 0 {
					t[name] = st.sums[name] / float64(st.counts[name])
				}
			case "MIN":
				t[name] = st.mins[name]
			case "MAX":
				t[name] = st.maxs[name]
			default:
				return nil, fmt.Errorf("phoenix: unknown aggregate %q", agg.Fn)
			}
		}
		out = append(out, t)
	}
	return out, nil
}

func normalizeSum(f float64) schema.Value {
	if f == float64(int64(f)) {
		return int64(f)
	}
	return f
}

func toFloat(v schema.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

func (q *query) aggOutputName(it sqlparser.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	return it.Expr.String()
}

// buildResult converts internal tuples to the client result set with
// friendly column names: unqualified when unambiguous, binding-qualified
// otherwise.
func (q *query) buildResult(tuples []tuple) (*ResultSet, error) {
	sel := q.sel
	aggregated := len(sel.GroupBy) > 0 || q.hasAggregates()

	// Count column ownership for ambiguity detection.
	owners := map[string]int{}
	for _, b := range q.bindings {
		for _, c := range b.cols {
			owners[c]++
		}
	}
	outName := func(bind, col string) string {
		if owners[col] > 1 {
			return bind + "." + col
		}
		return col
	}

	var cols []string
	type mapping struct {
		out string
		in  string
	}
	var maps []mapping

	if sel.Star && !aggregated {
		for _, b := range q.bindings {
			for _, c := range b.cols {
				maps = append(maps, mapping{out: outName(b.name, c), in: b.name + "." + c})
			}
		}
	} else if aggregated {
		for _, it := range sel.Items {
			switch x := it.Expr.(type) {
			case sqlparser.AggExpr:
				name := q.aggOutputName(it)
				maps = append(maps, mapping{out: name, in: name})
			case sqlparser.ColumnRef:
				key, err := q.outputKey(x, tuples)
				if err != nil {
					return nil, err
				}
				name := it.Alias
				if name == "" {
					name = x.Column
				}
				maps = append(maps, mapping{out: name, in: key})
			default:
				return nil, fmt.Errorf("phoenix: unsupported select item %s", it)
			}
		}
	} else {
		for _, it := range sel.Items {
			switch x := it.Expr.(type) {
			case sqlparser.ColumnRef:
				b, err := q.resolveColumn(x)
				if err != nil {
					return nil, err
				}
				name := it.Alias
				if name == "" {
					name = outName(b.name, x.Column)
				}
				maps = append(maps, mapping{out: name, in: b.name + "." + x.Column})
			case sqlparser.Literal:
				maps = append(maps, mapping{out: it.Expr.String(), in: ""})
			default:
				return nil, fmt.Errorf("phoenix: unsupported select item %s", it)
			}
		}
	}

	for _, m := range maps {
		cols = append(cols, m.out)
	}
	rows := make([]schema.Row, len(tuples))
	for i, t := range tuples {
		row := make(schema.Row, len(maps))
		for _, m := range maps {
			if m.in == "" {
				continue
			}
			row[m.out] = t[m.in]
		}
		rows[i] = row
	}
	return &ResultSet{Columns: cols, Rows: rows}, nil
}
