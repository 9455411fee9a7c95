package main

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"synergy/internal/hbase"
	"synergy/internal/schema"
	"synergy/internal/server"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Output checks run after the measured phases, with no traffic in flight.
// A failed check fails the run.

// browseChecks is how many of the run's SELECTs the browse check replays.
const browseChecks = 24

// cell renders a value the way the text protocol does, so wire rows and
// in-process rows compare as strings.
func cell(v schema.Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	default:
		return fmt.Sprintf("%T(%v)", v, v)
	}
}

// checkBrowse replays a seeded sample of the SELECTs the run sent, over the
// wire and in-process through synergy.System.Query, and requires the same
// columns and rows in the same order.
func checkBrowse(d *deployment, bs []*browseConn, rng *sim.RNG) error {
	var texts []string
	for _, b := range bs {
		texts = append(texts, b.selects...)
	}
	if len(texts) == 0 {
		return fmt.Errorf("browse: no SELECT succeeded")
	}
	c, err := dial(d, nil)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < browseChecks; i++ {
		text := texts[rng.Intn(len(texts))]
		wire, err := wireRows(c, text)
		if err != nil {
			return fmt.Errorf("browse check over the wire: %w\n%s", err, text)
		}
		stmt, err := sqlparser.Parse(text)
		if err != nil {
			return err
		}
		rs, err := d.sys.Query(sim.NewCtx(), stmt.(*sqlparser.SelectStmt), nil)
		if err != nil {
			return fmt.Errorf("browse check in-process: %w\n%s", err, text)
		}
		local := []string{strings.Join(rs.Columns, "\x1f")}
		for _, r := range rs.Rows {
			vals := make([]string, len(rs.Columns))
			for j, col := range rs.Columns {
				vals[j] = cell(r[col])
			}
			local = append(local, strings.Join(vals, "\x1f"))
		}
		if strings.Join(wire, "\n") != strings.Join(local, "\n") {
			return fmt.Errorf("browse check: wire and in-process results differ (%d vs %d rows)\n%s",
				len(wire)-1, len(local)-1, text)
		}
	}
	return nil
}

// wireRows runs a SELECT over the text protocol: the column names, then
// one string per row.
func wireRows(c *server.Client, text string) ([]string, error) {
	rows, err := c.QueryStream(text)
	if err != nil {
		return nil, err
	}
	out := []string{strings.Join(rows.Columns(), "\x1f")}
	for rows.Next() {
		vals, err := rows.Values()
		if err != nil {
			rows.Close()
			return nil, err
		}
		s := make([]string, len(vals))
		for j, v := range vals {
			s[j] = cell(v)
		}
		out = append(out, strings.Join(s, "\x1f"))
	}
	return out, rows.Err()
}

// checkOrders requires every committed order, with each of its lines, in
// Orders, Order_line and every view over them; no row of a transaction
// rolled back before COMMIT in any of them or in CC_Xacts; and each
// transaction whose COMMIT failed either wholly applied or wholly absent.
// Under MVCC the tables are read at a fresh snapshot, so aborted writes are
// invisible exactly as they are to queries.
func checkOrders(d *deployment, os []*orderConn) error {
	ctx := sim.NewCtx()
	var read hbase.ReadOpts
	if d.sys.MVCCServer != nil {
		tx := d.sys.MVCCServer.Begin(ctx)
		defer d.sys.MVCCServer.Abort(ctx, tx)
		read = tx.ReadOpts()
	}
	// present maps each table to the keys it holds: o_id for Orders and
	// its views, "o_id/ol_id" for Order_line and its views.
	present := map[string]map[string]bool{}
	lineOf := map[string]string{} // Order_line key -> "item/qty"
	scan := func(table, rel string) error {
		rows, err := d.sys.Engine.ScanAll(ctx, table, read)
		if err != nil {
			return fmt.Errorf("scanning %s: %w", table, err)
		}
		keys := map[string]bool{}
		for _, r := range rows {
			var k string
			switch rel {
			case "Orders":
				k = cell(r["o_id"])
			case "CC_Xacts":
				k = cell(r["cx_o_id"])
			case "Order_line":
				k = cell(r["ol_o_id"]) + "/" + cell(r["ol_id"])
				if table == rel {
					lineOf[k] = cell(r["ol_i_id"]) + "/" + cell(r["ol_qty"])
				}
			}
			keys[k] = true
		}
		present[table] = keys
		return nil
	}
	tablesOf := map[string][]string{}
	for _, rel := range []string{"Orders", "Order_line", "CC_Xacts"} {
		tablesOf[rel] = []string{rel}
		for _, v := range d.sys.Design.Views {
			if v.Contains(rel) && v.Last() == rel {
				tablesOf[rel] = append(tablesOf[rel], v.Name())
			}
		}
		for _, t := range tablesOf[rel] {
			if err := scan(t, rel); err != nil {
				return err
			}
		}
	}
	// rowsOf lists where each row of an order belongs.
	rowsOf := func(ord order) [][2]string {
		id := strconv.FormatInt(ord.id, 10)
		var out [][2]string
		for _, rel := range []string{"Orders", "CC_Xacts"} {
			for _, t := range tablesOf[rel] {
				out = append(out, [2]string{t, id})
			}
		}
		for _, l := range ord.lines {
			for _, t := range tablesOf["Order_line"] {
				out = append(out, [2]string{t, id + "/" + strconv.FormatInt(l.id, 10)})
			}
		}
		return out
	}
	committed, failed, applied, absent := 0, 0, 0, 0
	for _, o := range os {
		for _, ord := range o.inDoubt {
			rows := rowsOf(ord)
			n := 0
			for _, r := range rows {
				if present[r[0]][r[1]] {
					n++
				}
			}
			switch n {
			case len(rows):
				applied++
			case 0:
				absent++
			default:
				return fmt.Errorf("order check: order %d failed at COMMIT with %d of its %d rows applied", ord.id, n, len(rows))
			}
		}
		for _, ord := range o.committed {
			committed++
			id := strconv.FormatInt(ord.id, 10)
			for _, t := range tablesOf["Orders"] {
				if !present[t][id] {
					return fmt.Errorf("order check: committed order %s missing from %s", id, t)
				}
			}
			for _, l := range ord.lines {
				k := id + "/" + strconv.FormatInt(l.id, 10)
				for _, t := range tablesOf["Order_line"] {
					if !present[t][k] {
						return fmt.Errorf("order check: committed order line %s missing from %s", k, t)
					}
				}
				if want := fmt.Sprintf("%d/%d", l.item, l.qty); lineOf[k] != want {
					return fmt.Errorf("order check: order line %s holds item/qty %s, committed %s", k, lineOf[k], want)
				}
			}
		}
		for _, oid := range o.failed {
			failed++
			id := strconv.FormatInt(oid, 10)
			for _, rel := range []string{"Orders", "CC_Xacts"} {
				for _, t := range tablesOf[rel] {
					if present[t][id] {
						return fmt.Errorf("order check: order %s did not commit but appears in %s", id, t)
					}
				}
			}
			for _, t := range tablesOf["Order_line"] {
				if present[t][id+"/1"] {
					return fmt.Errorf("order check: order %s did not commit but its line appears in %s", id, t)
				}
			}
		}
	}
	if committed == 0 {
		return fmt.Errorf("order check: no transaction committed")
	}
	fmt.Printf("order check: %d committed, %d rolled back, %d failed at COMMIT (%d applied in full, %d not at all)\n",
		committed, failed, applied+absent, applied, absent)
	return nil
}

// checkScans requires every scan to return the view's cardinality and the
// checksum of the same query's rows read in-process through
// synergy.System.QueryStream and encoded as text-protocol rows.
func checkScans(d *deployment, ss []*scanConn) error {
	want := []int{d.cards["MOrder"], d.cards["MOrder_line"]}
	var ref []*rowSum
	for qi, text := range scanQueries {
		stmt, err := sqlparser.Parse(text)
		if err != nil {
			return err
		}
		ctx := sim.NewCtx()
		cur, err := d.sys.QueryStream(ctx, stmt.(*sqlparser.SelectStmt), nil)
		if err != nil {
			return err
		}
		sum := newRowSum()
		n := 0
		cols := cur.Columns()
		var b []byte
		for cur.Next(ctx) {
			b = b[:0]
			row := cur.Row()
			for _, col := range cols {
				if row[col] == nil {
					b = append(b, 0xfb)
					continue
				}
				b = appendLencString(b, cell(row[col]))
			}
			sum.add(b)
			n++
		}
		if err := cur.Err(); err != nil {
			cur.Close(ctx)
			return err
		}
		if err := cur.Close(ctx); err != nil {
			return err
		}
		if n != want[qi] {
			return fmt.Errorf("scan check: in-process Q%d returned %d rows, view cardinality %d", qi+1, n, want[qi])
		}
		ref = append(ref, sum)
	}
	scans := 0
	for _, sc := range ss {
		for _, r := range sc.results {
			scans++
			if r.rows != want[r.query] {
				return fmt.Errorf("scan check: Q%d returned %d rows over the wire, view cardinality %d", r.query+1, r.rows, want[r.query])
			}
			if r.sum != ref[r.query].sum {
				return fmt.Errorf("scan check: Q%d wire checksum %016x, in-process %016x", r.query+1, r.sum, ref[r.query].sum)
			}
		}
	}
	if scans == 0 {
		return fmt.Errorf("scan check: no scan completed")
	}
	for _, v := range d.sys.Design.Views {
		if v.Last() == "MOrder_line" {
			if n := d.sys.Store.RegionCount(v.Name()); n < 2 {
				return fmt.Errorf("scan check: Q2's view %s spans %d region, want at least 2", v.Name(), n)
			}
		}
	}
	return nil
}

// appendLencString appends a length-encoded string (protocol 41).
func appendLencString(b []byte, s string) []byte {
	n := uint64(len(s))
	switch {
	case n < 251:
		b = append(b, byte(n))
	case n < 1<<16:
		b = append(b, 0xfc)
		b = binary.LittleEndian.AppendUint16(b, uint16(n))
	case n < 1<<24:
		b = append(b, 0xfd, byte(n), byte(n>>8), byte(n>>16))
	default:
		b = append(b, 0xfe)
		b = binary.LittleEndian.AppendUint64(b, n)
	}
	return append(b, s...)
}
