package phoenix

import (
	"fmt"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// TestSQLReadBackGolden is the SQL leg of the map-vs-slice parity suite:
// typed values of every encodable kind go in through DML and must come
// back byte- and type-identical through each access path the slice
// representation now feeds — full scan, PK point lookup, index prefix and
// the read-before-write of UPDATE — against hand-written golden rows.
func TestSQLReadBackGolden(t *testing.T) {
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := NewCatalog(hc)
	rel := &schema.Relation{
		Name: "Item",
		Columns: []schema.Column{
			{Name: "i_id", Type: schema.TInt},
			{Name: "i_title", Type: schema.TString},
			{Name: "i_cost", Type: schema.TFloat},
			{Name: "i_stock", Type: schema.TInt},
		},
		PK: []string{"i_id"},
	}
	if _, err := cat.RegisterRelation(rel, hbase.TableSpec{}); err != nil {
		t.Fatal(err)
	}
	if err := cat.RegisterIndex("Item", IndexInfo{Name: "ix_item_title", On: []string{"i_title"}}, hbase.TableSpec{}); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(cat)
	ctx := sim.NewCtx()

	golden := []schema.Row{
		{"i_id": int64(1), "i_title": "alpha", "i_cost": 1.5, "i_stock": int64(7)},
		{"i_id": int64(2), "i_title": "beta", "i_cost": -0.25, "i_stock": int64(0)},
		{"i_id": int64(3), "i_title": "", "i_cost": 1e9, "i_stock": int64(-4)},
		{"i_id": int64(4), "i_title": "delta", "i_stock": int64(2)}, // NULL cost
	}
	info, _ := cat.Table("Item")
	for _, row := range golden {
		if err := eng.PutRow(ctx, info, row, WriteOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	// Exercise store files + memstore merge, not just memstore reads.
	if err := hc.FlushTable("Item"); err != nil {
		t.Fatal(err)
	}
	if err := eng.Exec(ctx, sqlparser.MustParse("UPDATE Item SET i_stock = ? WHERE i_id = ?"),
		[]schema.Value{int64(99), int64(2)}, WriteOpts{}); err != nil {
		t.Fatal(err)
	}
	golden[1]["i_stock"] = int64(99)

	requireRow := func(where string, got schema.Row, want schema.Row) {
		t.Helper()
		for col := range want {
			if !schema.ValuesEqual(got[col], want[col]) {
				t.Fatalf("%s: %s = %#v, golden %#v", where, col, got[col], want[col])
			}
		}
	}

	// Full scan, ordered by key.
	sel := sqlparser.MustParse("SELECT * FROM Item as i ORDER BY i.i_id").(*sqlparser.SelectStmt)
	rs, err := drain(ctx)(eng.QueryStream(ctx, sel, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(golden) {
		t.Fatalf("scan returned %d rows, want %d", len(rs.Rows), len(golden))
	}
	for i, want := range golden {
		requireRow(fmt.Sprintf("scan row %d", i), rs.Rows[i], want)
		if v, ok := rs.Rows[i]["i_cost"]; i == 3 && (ok && v != nil) {
			t.Fatalf("NULL column came back as %#v", v)
		}
	}

	// PK point lookups.
	point := sqlparser.MustParse("SELECT * FROM Item as i WHERE i.i_id = ?").(*sqlparser.SelectStmt)
	for _, want := range golden {
		rs, err := drain(ctx)(eng.QueryStream(ctx, point, []schema.Value{want["i_id"]}))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("point lookup i_id=%v returned %d rows", want["i_id"], len(rs.Rows))
		}
		requireRow(fmt.Sprintf("point %v", want["i_id"]), rs.Rows[0], want)
	}

	// Index-prefix path.
	byTitle := sqlparser.MustParse("SELECT * FROM Item as i WHERE i.i_title = ?").(*sqlparser.SelectStmt)
	rs, err = drain(ctx)(eng.QueryStream(ctx, byTitle, []schema.Value{"beta"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("index lookup returned %d rows", len(rs.Rows))
	}
	requireRow("index beta", rs.Rows[0], golden[1])
}
