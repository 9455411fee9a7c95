package occ

import (
	"errors"
	"sync"
	"testing"

	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// TestSessionTxnReadYourWrites: inside one optimistic transaction, point
// gets and scans see the transaction's own buffered writes merged over its
// snapshot, while a concurrent reader sees nothing until commit.
func TestSessionTxnReadYourWrites(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")

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

	point := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	rs, err := drain(ctx)(tx.QueryStream(ctx, point, []schema.Value{int64(3)}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0]["bal"].(int64) != 333 {
		t.Fatalf("point get inside txn = %v, want bal 333", rs.Rows)
	}
	full := sqlparser.MustParse("SELECT id FROM Account").(*sqlparser.SelectStmt)
	rs, err = drain(ctx)(tx.QueryStream(ctx, full, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("full scan inside txn = %d rows, want 2", len(rs.Rows))
	}

	// Concurrent snapshot reader sees nothing.
	if _, ok := balance(t, s, 3); ok {
		t.Fatal("concurrent reader saw an uncommitted insert")
	}

	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if bal, ok := balance(t, s, 3); !ok || bal != 333 {
		t.Fatalf("post-commit balance = %d, %v; want 333", bal, ok)
	}
}

// TestSessionTxnDeleteThenReinsert: flush-time stamping orders a buffered
// tombstone strictly below a later re-insert of the same row, so the row
// survives commit (the OCC analogue of the MVCC checkpoint regression).
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

// TestSessionTxnAbortDiscards: an aborted optimistic transaction flushed
// nothing, so the abort is a pure buffer discard with no store cleanup.
func TestSessionTxnAbortDiscards(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")

	ctx := sim.NewCtx()
	tx := s.BeginTxn(ctx)
	if err := tx.Exec(ctx, sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?"),
		[]schema.Value{int64(999), int64(1)}); err != nil {
		t.Fatal(err)
	}
	tx.Abort(ctx)

	if bal, _ := balance(t, s, 1); bal != 100 {
		t.Fatalf("aborted update visible: bal = %d", bal)
	}
	if st := s.Validator().Stats(); st.Aborts == 0 {
		t.Fatal("abort not recorded by the validator")
	}
	if err := tx.Commit(ctx); !errors.Is(err, ErrFinished) {
		t.Fatalf("commit after abort = %v, want ErrFinished", err)
	}
}

// TestConcurrentIncrementsSerializable is the classic OCC correctness
// check: many goroutines increment the same balance read-modify-write,
// retrying validation conflicts; every committed increment must survive, so
// the final balance equals the total number of increments.
func TestConcurrentIncrementsSerializable(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 0, "counter")

	const workers, perWorker = 8, 20
	point := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	up := sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?")

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					ctx := sim.NewCtx()
					tx := s.BeginTxn(ctx)
					rs, err := drain(ctx)(tx.QueryStream(ctx, point, []schema.Value{int64(1)}))
					if err != nil {
						tx.Abort(ctx)
						errs <- err
						return
					}
					cur := rs.Rows[0]["bal"].(int64)
					if err := tx.Exec(ctx, up, []schema.Value{cur + 1, int64(1)}); err != nil {
						tx.Abort(ctx)
						errs <- err
						return
					}
					err = tx.Commit(ctx)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrConflict) {
						errs <- err
						return
					}
					// Validation conflict: retry from a fresh snapshot.
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if bal, _ := balance(t, s, 1); bal != workers*perWorker {
		t.Fatalf("final balance = %d, want %d (lost increments are a serializability violation)",
			bal, workers*perWorker)
	}
	st := s.Validator().Stats()
	if st.Commits < workers*perWorker {
		t.Fatalf("commits = %d, want at least %d", st.Commits, workers*perWorker)
	}
	t.Logf("commits=%d conflicts=%d (contention on one hot row)", st.Commits, st.Conflicts)
}

// TestSessionTxnQueryStreamRangeJoinsReadSet: a cursor's scan range joins the
// transaction's read set when the cursor opens, not row by row. The cursor
// here reads one row and is abandoned, yet a concurrent commit elsewhere in
// the scanned range still fails validation.
func TestSessionTxnQueryStreamRangeJoinsReadSet(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	insert(t, s, 2, 200, "bob")

	ctx := sim.NewCtx()
	tx := s.BeginTxn(ctx)
	full := sqlparser.MustParse("SELECT id, bal FROM Account").(*sqlparser.SelectStmt)
	cur, err := tx.QueryStream(ctx, full, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next(ctx) || cur.Row()["id"] != int64(1) {
		t.Fatalf("first row %v, want id 1", cur.Row())
	}
	if err := cur.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Exec(ctx, sqlparser.MustParse("UPDATE Account SET owner = ? WHERE id = ?"),
		[]schema.Value{"scanner", int64(1)}); err != nil {
		t.Fatal(err)
	}

	// A concurrent transaction commits a row the cursor never returned.
	insert(t, s, 9, 900, "phantom")

	if err := tx.Commit(ctx); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit after a write inside the scanned range = %v, want ErrConflict", err)
	}
}
