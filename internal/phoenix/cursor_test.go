package phoenix

import (
	"reflect"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// streamShapes covers every execution shape the cursor path handles: the
// streaming-eligible single-binding scans (point, index, filter, PK prefix,
// bare LIMIT) and the blocking shapes that materialize internally and drain
// through the same cursor (joins, ORDER BY, GROUP BY, global aggregates,
// derived tables).
var streamShapes = []struct {
	name   string
	sql    string
	params []schema.Value
}{
	{"point", "SELECT * FROM Customer WHERE c_id = ?", []schema.Value{int64(3)}},
	{"index", "SELECT c_id, c_bal FROM Customer WHERE c_uname = ?", []schema.Value{"user07"}},
	{"filter-scan", "SELECT * FROM Customer WHERE c_bal > 80.0", nil},
	{"full-scan", "SELECT * FROM Orders", nil},
	{"projection", "SELECT o_id, o_total FROM Orders", nil},
	{"limit", "SELECT * FROM Orders LIMIT 7", nil},
	{"join", "SELECT * FROM Customer c, Orders o WHERE c.c_id = o.o_c_id AND c.c_uname = ?", []schema.Value{"user02"}},
	{"order-by", "SELECT o_id FROM Orders ORDER BY o_date DESC LIMIT 5", nil},
	{"group-by", "SELECT o_c_id, COUNT(*) AS n, SUM(o_total) AS tot FROM Orders GROUP BY o_c_id", nil},
	{"aggregate", "SELECT COUNT(*) AS n, MIN(o_total) AS lo, MAX(o_total) AS hi FROM Orders", nil},
}

// materialize runs sel through the buffering executor alone, never the
// streaming planner: the reference the cursor path is checked against.
func materialize(ctx *sim.Ctx, e *Engine, sel *sqlparser.SelectStmt, params []schema.Value) (*ResultSet, error) {
	q, err := e.analyzeStmt(ctx, sel, params, QueryOpts{})
	if err != nil {
		return nil, err
	}
	tuples, err := q.run(ctx)
	if err != nil {
		return nil, err
	}
	return q.project(ctx, tuples)
}

// TestQueryStreamMatchesQuery checks cursor execution returns exactly the
// buffering executor's result — same columns, same rows, same order — for
// every shape.
func TestQueryStreamMatchesQuery(t *testing.T) {
	for _, shape := range streamShapes {
		t.Run(shape.name, func(t *testing.T) {
			e, ctx := testDB(t)
			sel := sqlparser.MustParse(shape.sql).(*sqlparser.SelectStmt)
			want, err := materialize(ctx, e, sel, shape.params)
			if err != nil {
				t.Fatal(err)
			}
			cur, err := e.QueryStream(sim.NewCtx(), sel, shape.params)
			if err != nil {
				t.Fatal(err)
			}
			ctx2 := sim.NewCtx()
			got, err := DrainCursor(ctx2, cur)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) {
				t.Fatalf("columns: cursor %v, query %v", got.Columns, want.Columns)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("rows diverge:\ncursor %v\nquery  %v", got.Rows, want.Rows)
			}
		})
	}
}

// TestStreamCursorRawView checks the zero-copy RawCursor view decodes to the
// same values the Row map reports, column by column.
func TestStreamCursorRawView(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Customer").(*sqlparser.SelectStmt)
	cur, err := e.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close(ctx)
	raw, ok := cur.(RawCursor)
	if !ok {
		t.Fatal("single-binding scan did not expose a RawCursor")
	}
	n := 0
	for cur.Next(ctx) {
		n++
		row := cur.Row()
		for i, col := range cur.Columns() {
			v := DecodeValue(raw.RawValue(i))
			if !reflect.DeepEqual(v, row[col]) {
				t.Fatalf("row %d col %s: raw %v, map %v", n, col, v, row[col])
			}
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("streamed %d rows, want 10", n)
	}
}

// TestCursorEarlyClose abandons a streamed scan after one row and checks the
// engine stays healthy: Close is idempotent, Next after Close reports
// exhaustion, and a fresh query over the same table still sees every row
// (the scanner returned its pooled chunk without corrupting it).
func TestCursorEarlyClose(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Orders").(*sqlparser.SelectStmt)
	cur, err := e.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next(ctx) {
		t.Fatal("no first row")
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if cur.Next(ctx) {
		t.Fatal("Next after Close returned a row")
	}
	rs, err := drain(ctx)(e.QueryStream(ctx, sel, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 30 {
		t.Fatalf("post-abandon scan saw %d rows, want 30", len(rs.Rows))
	}
}

// TestCursorLimitPushdown checks a bare LIMIT reaches the region scanner:
// the streamed scan must charge strictly less simulated work than the
// unlimited one, not trim client-side after a full drain.
func TestCursorLimitPushdown(t *testing.T) {
	e, _ := testDB(t)
	cost := func(sql string) sim.Micros {
		ctx := sim.NewCtx()
		sel := sqlparser.MustParse(sql).(*sqlparser.SelectStmt)
		cur, err := e.QueryStream(ctx, sel, nil)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next(ctx) {
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		if err := cur.Close(ctx); err != nil {
			t.Fatal(err)
		}
		return ctx.Elapsed()
	}
	full := cost("SELECT * FROM Orders")
	limited := cost("SELECT * FROM Orders LIMIT 2")
	if limited >= full {
		t.Fatalf("LIMIT 2 cost %d >= full scan cost %d; limit not pushed down", limited, full)
	}
}

// TestWithCloseHook checks the hook fires exactly once with the cursor's
// terminal state, and that wrapping preserves the raw fast path.
func TestWithCloseHook(t *testing.T) {
	e, ctx := testDB(t)
	sel := sqlparser.MustParse("SELECT * FROM Customer").(*sqlparser.SelectStmt)
	inner, err := e.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cur := WithClose(inner, func(ctx *sim.Ctx, c RowCursor) error {
		calls++
		if err := c.Err(); err != nil {
			t.Fatalf("hook saw cursor error %v", err)
		}
		return nil
	})
	if _, ok := cur.(RawCursor); !ok {
		t.Fatal("WithClose dropped the RawCursor fast path")
	}
	n := 0
	for cur.Next(ctx) {
		n++
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("close hook ran %d times, want 1", calls)
	}
	if n != 10 {
		t.Fatalf("streamed %d rows, want 10", n)
	}
}
