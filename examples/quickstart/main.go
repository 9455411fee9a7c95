// Quickstart: the paper's worked example end to end.
//
// This program walks the Company database of Figure 2 through the Synergy
// pipeline (Figure 3): schema graph -> DAG -> rooted trees (Figures 4-5),
// workload-driven view selection and query rewriting (Figure 6 procedure),
// then deploys the system, loads data, and runs the workload both ways —
// joins on base tables vs the selected materialized views.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
	"synergy/internal/synergy"
)

func main() {
	// 1. Design: schema + roots + workload -> views (Figure 3).
	workload := schema.CompanyWorkload()
	sys, err := synergy.New(schema.Company(), schema.CompanyRoots(), workload, synergy.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Synergy design for the Company schema (Figures 4-6) ===")
	fmt.Println(sys.Design.Summary())

	fmt.Println("=== Query rewrites (§VI-B) ===")
	for i, sel := range sys.Design.Workload.Selects() {
		rw := sys.Design.Rewritten[sel]
		fmt.Printf("W%d original : %s\n", i+1, sel)
		fmt.Printf("W%d rewritten: %s\n\n", i+1, rw.Stmt)
	}

	// 2. Load a small dataset.
	var addresses, departments, employees, worksOn []schema.Row
	for a := int64(1); a <= 5; a++ {
		addresses = append(addresses, schema.Row{"AID": a, "Street": fmt.Sprintf("%d Elm St", a), "City": "Nashville", "Zip": "37201"})
	}
	for d := int64(1); d <= 2; d++ {
		departments = append(departments, schema.Row{"DNo": d, "DName": fmt.Sprintf("dept-%d", d)})
	}
	for e := int64(1); e <= 10; e++ {
		employees = append(employees, schema.Row{
			"EID": e, "EName": fmt.Sprintf("employee-%d", e),
			"EHome_AID": (e % 5) + 1, "EOffice_AID": ((e + 2) % 5) + 1, "E_DNo": (e % 2) + 1,
		})
	}
	for e := int64(1); e <= 10; e++ {
		worksOn = append(worksOn, schema.Row{"WO_EID": e, "WO_PNo": int64(1), "Hours": e * 4})
	}
	loads := map[string][]schema.Row{
		"Address": addresses, "Department": departments,
		"Employee": employees, "Works_On": worksOn,
		"Project":   {{"PNo": int64(1), "PName": "apollo", "P_DNo": int64(1)}},
		"Dependent": {},
	}
	for table, rows := range loads {
		if err := sys.LoadBase(table, rows); err != nil {
			log.Fatal(err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		log.Fatal(err)
	}

	// 3. Run W1 both ways: view scan vs join algorithm.
	w1 := sys.Design.Workload.Selects()[0]
	params := []schema.Value{int64(3)}

	viewCtx := sim.NewCtx()
	rs, err := sys.Query(viewCtx, w1, params) // rewritten: uses Address-Employee
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== W1 via materialized view ===")
	for _, r := range rs.Rows {
		fmt.Printf("  %v lives at %v (%v)\n", r["EName"], r["Street"], r["City"])
	}
	fmt.Printf("  simulated response time: %v\n\n", viewCtx.Elapsed())

	joinCtx := sim.NewCtx()
	cur, err := sys.Engine.QueryStream(joinCtx, w1, params) // base tables
	if err == nil {
		_, err = phoenix.DrainCursor(joinCtx, cur)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== W1 via base-table join: %v (%.1fx slower) ===\n\n",
		joinCtx.Elapsed(), float64(joinCtx.Elapsed())/float64(viewCtx.Elapsed()))

	// 4. A write transaction: single lock, view maintenance (§VII, §VIII).
	stmt := sqlparser.MustParse("INSERT INTO Works_On (WO_EID, WO_PNo, Hours) VALUES (?, ?, ?)")
	wctx := sim.NewCtx()
	if err := sys.Exec(wctx, stmt, []schema.Value{int64(3), int64(2), int64(12)}); err != nil {
		log.Fatal(err)
	}
	snap := wctx.Snapshot()
	fmt.Printf("=== insert into Works_On: %v, locks held: %d (always exactly one) ===\n",
		wctx.Elapsed(), snap.Locks)

	// The view reflects the write immediately.
	w3 := sys.Design.Workload.Selects()[2]
	rs, _ = sys.Query(sim.NewCtx(), w3, []schema.Value{int64(12)})
	fmt.Printf("employees working 12 hours (via Employee-Works_On view): %d row(s)\n", len(rs.Rows))
}
