package mvcc

import (
	"errors"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// TestSessionTxnReadYourWrites is the overlay parity contract at the SQL
// level: inside one multi-statement transaction, a point get, a limit scan
// and an unlimited scan all see the transaction's own uncommitted rows,
// while a concurrent session sees none of them until commit.
func TestSessionTxnReadYourWrites(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	insert(t, s, 2, 200, "bob")

	ctx := sim.NewCtx()
	tx := s.BeginTxn(ctx)
	exec := func(q string, params ...schema.Value) {
		t.Helper()
		if err := tx.Exec(ctx, sqlparser.MustParse(q), params); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	exec("INSERT INTO Account (id, bal, owner) VALUES (?, ?, ?)", int64(3), int64(300), "carol")
	exec("UPDATE Account SET bal = ? WHERE id = ?", int64(333), int64(3))
	exec("UPDATE Account SET bal = ? WHERE id = ?", int64(111), int64(1))

	// Point get sees the buffered insert + update.
	point := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	rs, err := drain(ctx)(tx.QueryStream(ctx, point, []schema.Value{int64(3)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0]["bal"].(int64) != 333 {
		t.Fatalf("point get inside txn = %v, want bal 333", rs.Rows)
	}

	// Unlimited scan sees all three rows with buffered values.
	full := sqlparser.MustParse("SELECT id, bal FROM Account").(*sqlparser.SelectStmt)
	rs, err = drain(ctx)(tx.QueryStream(ctx, full, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("full scan inside txn = %d rows, want 3", len(rs.Rows))
	}
	bals := map[int64]int64{}
	for _, r := range rs.Rows {
		bals[r["id"].(int64)] = r["bal"].(int64)
	}
	if bals[1] != 111 || bals[2] != 200 || bals[3] != 333 {
		t.Fatalf("full scan inside txn = %v, want own updates visible", bals)
	}

	// Limit scan merges pending rows into the bounded stream.
	limited := sqlparser.MustParse("SELECT id FROM Account ORDER BY id ASC LIMIT 3").(*sqlparser.SelectStmt)
	rs, err = drain(ctx)(tx.QueryStream(ctx, limited, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("limit scan inside txn = %d rows, want 3", len(rs.Rows))
	}

	// A concurrent session sees none of it.
	if _, ok := balance(t, s, 3); ok {
		t.Fatal("concurrent session saw an uncommitted insert")
	}
	if bal, _ := balance(t, s, 1); bal != 100 {
		t.Fatalf("concurrent session saw uncommitted update: bal = %d", bal)
	}

	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if bal, ok := balance(t, s, 3); !ok || bal != 333 {
		t.Fatalf("post-commit balance = %d, %v; want 333", bal, ok)
	}
	if bal, _ := balance(t, s, 1); bal != 111 {
		t.Fatalf("post-commit balance = %d, want 111", bal)
	}
}

// TestSessionTxnDeleteThenReinsert is the checkpoint regression: without
// per-statement write pointers, a DELETE and a later re-INSERT of the same
// row share one timestamp and the tombstone shadows the put — the row is
// silently lost both inside the transaction and after commit.
func TestSessionTxnDeleteThenReinsert(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")

	ctx := sim.NewCtx()
	tx := s.BeginTxn(ctx)
	if err := tx.Exec(ctx, sqlparser.MustParse("DELETE FROM Account WHERE id = ?"),
		[]schema.Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Exec(ctx, sqlparser.MustParse("INSERT INTO Account (id, bal, owner) VALUES (?, ?, ?)"),
		[]schema.Value{int64(1), int64(500), "alice2"}); err != nil {
		t.Fatal(err)
	}
	// The transaction's own read sees the re-inserted row.
	point := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	rs, err := drain(ctx)(tx.QueryStream(ctx, point, []schema.Value{int64(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0]["bal"].(int64) != 500 {
		t.Fatalf("read inside txn after delete+reinsert = %v, want bal 500", rs.Rows)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if bal, ok := balance(t, s, 1); !ok || bal != 500 {
		t.Fatalf("post-commit balance = %d, %v; re-inserted row lost", bal, ok)
	}
}

// TestSessionTxnAbortDiscards: an aborted transaction's buffered writes
// never reach the store, and the transaction counts as aborted.
func TestSessionTxnAbortDiscards(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")

	ctx := sim.NewCtx()
	tx := s.BeginTxn(ctx)
	if err := tx.Exec(ctx, sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?"),
		[]schema.Value{int64(999), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Exec(ctx, sqlparser.MustParse("INSERT INTO Account (id, bal, owner) VALUES (?, ?, ?)"),
		[]schema.Value{int64(7), int64(700), "ghost"}); err != nil {
		t.Fatal(err)
	}
	tx.Abort(ctx)

	if bal, _ := balance(t, s, 1); bal != 100 {
		t.Fatalf("aborted update visible: bal = %d", bal)
	}
	if _, ok := balance(t, s, 7); ok {
		t.Fatal("aborted insert visible")
	}
	if st := s.Server().Stats(); st.Aborts == 0 {
		t.Fatal("abort not recorded by the server")
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrFinishedTxn) {
		t.Fatalf("commit after abort = %v, want ErrFinishedTxn", err)
	}
}

// TestSessionTxnConflictAborts: conflict detection still runs at the
// transaction's single commit flush — overlapping writers lose exactly as
// they do per-statement, and the loser's flushed writes are invisible.
func TestSessionTxnConflictAborts(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")

	ctx := sim.NewCtx()
	t1 := s.BeginTxn(ctx)
	t2 := s.BeginTxn(ctx)
	up := sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?")
	if err := t1.Exec(ctx, up, []schema.Value{int64(111), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := t2.Exec(ctx, up, []schema.Value{int64(222), int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("overlapping commit = %v, want ErrConflict", err)
	}
	if bal, _ := balance(t, s, 1); bal != 111 {
		t.Fatalf("balance = %d, want winner's 111", bal)
	}
}

// TestSessionQueryStreamSettlesOnClose: an autocommit QueryStream runs in its
// own snapshot transaction, which stays active for the cursor's whole
// lifetime — draining is not enough — and commits when Close follows a
// clean drain.
func TestSessionQueryStreamSettlesOnClose(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	insert(t, s, 2, 200, "bob")
	srv := s.Server()
	before := srv.Stats()

	ctx := sim.NewCtx()
	sel := sqlparser.MustParse("SELECT id, bal FROM Account").(*sqlparser.SelectStmt)
	cur, err := s.QueryStream(ctx, sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.ActiveTxns(); n != 1 {
		t.Fatalf("%d active transactions with the cursor open, want 1", n)
	}
	rows := 0
	for cur.Next(ctx) {
		rows++
	}
	if err := cur.Err(); err != nil || rows != 2 {
		t.Fatalf("drained %d rows (err %v), want 2", rows, err)
	}
	if n := srv.ActiveTxns(); n != 1 {
		t.Fatalf("%d active transactions after the drain, want 1 until Close", n)
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := srv.ActiveTxns(); n != 0 {
		t.Fatalf("%d active transactions after Close, want 0", n)
	}
	st := srv.Stats()
	if st.Commits != before.Commits+1 || st.Aborts != before.Aborts {
		t.Fatalf("Close settled with %d commits, %d aborts; want 1 commit, 0 aborts",
			st.Commits-before.Commits, st.Aborts-before.Aborts)
	}
}
