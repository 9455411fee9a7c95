package mvcc

import (
	"errors"
	"sync"
	"testing"

	"synergy/internal/cluster"
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// drain materializes a QueryStream call's result, closing the cursor:
// rs, err := drain(ctx)(s.QueryStream(ctx, sel, params)).
func drain(ctx *sim.Ctx) func(phoenix.RowCursor, error) (*phoenix.ResultSet, error) {
	return func(cur phoenix.RowCursor, err error) (*phoenix.ResultSet, error) {
		if err != nil {
			return nil, err
		}
		return phoenix.DrainCursor(ctx, cur)
	}
}

func newSession(t *testing.T) *Session {
	t.Helper()
	hc := hbase.NewHCluster(cluster.NewDefault(nil), nil, nil)
	cat := phoenix.NewCatalog(hc)
	rel := &schema.Relation{
		Name: "Account",
		Columns: []schema.Column{
			{Name: "id", Type: schema.TInt},
			{Name: "bal", Type: schema.TInt},
			{Name: "owner", Type: schema.TString},
		},
		PK: []string{"id"},
	}
	if _, err := cat.RegisterRelation(rel, hbase.TableSpec{MaxVersions: 1000}); err != nil {
		t.Fatal(err)
	}
	return NewSession(phoenix.NewEngine(cat), NewServer(hc.Costs()))
}

func insert(t *testing.T, s *Session, id, bal int64, owner string) {
	t.Helper()
	stmt := sqlparser.MustParse("INSERT INTO Account (id, bal, owner) VALUES (?, ?, ?)")
	if err := s.Exec(sim.NewCtx(), stmt, []schema.Value{id, bal, owner}); err != nil {
		t.Fatal(err)
	}
}

func balance(t *testing.T, s *Session, id int64) (int64, bool) {
	t.Helper()
	sel := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	ctx := sim.NewCtx()
	rs, err := drain(ctx)(s.QueryStream(ctx, sel, []schema.Value{id}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		return 0, false
	}
	return rs.Rows[0]["bal"].(int64), true
}

func TestCommittedWritesVisible(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	if bal, ok := balance(t, s, 1); !ok || bal != 100 {
		t.Fatalf("balance = %d, %v; want 100, true", bal, ok)
	}
}

func TestAbortedWritesInvisible(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	ctx := sim.NewCtx()
	tx := s.Server().Begin(ctx)
	err := s.Engine().Exec(ctx, sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?"),
		[]schema.Value{int64(999), int64(1)}, phoenix.WriteOpts{TS: tx.ID(), Read: tx.ReadOpts(), OnWrite: tx.RecordWrite})
	if err != nil {
		t.Fatal(err)
	}
	s.Server().Abort(ctx, tx)
	if bal, _ := balance(t, s, 1); bal != 100 {
		t.Fatalf("aborted write visible: bal = %d", bal)
	}
}

func TestSnapshotIsolationAgainstInFlight(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	ctx := sim.NewCtx()

	// Writer begins and writes but does not commit yet.
	writer := s.Server().Begin(ctx)
	if err := s.Engine().Exec(ctx, sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?"),
		[]schema.Value{int64(50), int64(1)}, phoenix.WriteOpts{TS: writer.ID(), Read: writer.ReadOpts(), OnWrite: writer.RecordWrite}); err != nil {
		t.Fatal(err)
	}

	// Reader beginning now must not see the in-flight write.
	reader := s.Server().Begin(ctx)
	sel := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	rs, err := drain(ctx)(s.Engine().QueryStreamOpts(ctx, sel, []schema.Value{int64(1)}, phoenix.QueryOpts{Read: reader.ReadOpts()}))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0]["bal"].(int64) != 100 {
		t.Fatalf("reader saw uncommitted write: %v", rs.Rows[0])
	}

	// Even after the writer commits, the reader's snapshot is stable.
	if err := s.Server().Commit(ctx, writer); err != nil {
		t.Fatal(err)
	}
	rs, _ = drain(ctx)(s.Engine().QueryStreamOpts(ctx, sel, []schema.Value{int64(1)}, phoenix.QueryOpts{Read: reader.ReadOpts()}))
	if rs.Rows[0]["bal"].(int64) != 100 {
		t.Fatalf("snapshot unstable after concurrent commit: %v", rs.Rows[0])
	}
	s.Server().Commit(ctx, reader)

	// A fresh transaction sees the committed value.
	if bal, _ := balance(t, s, 1); bal != 50 {
		t.Fatalf("new snapshot bal = %d, want 50", bal)
	}
}

func TestOwnWritesVisible(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	ctx := sim.NewCtx()
	tx := s.Server().Begin(ctx)
	if err := s.Engine().Exec(ctx, sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?"),
		[]schema.Value{int64(42), int64(1)}, phoenix.WriteOpts{TS: tx.ID(), Read: tx.ReadOpts(), OnWrite: tx.RecordWrite}); err != nil {
		t.Fatal(err)
	}
	sel := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	rs, err := drain(ctx)(s.Engine().QueryStreamOpts(ctx, sel, []schema.Value{int64(1)}, phoenix.QueryOpts{Read: tx.ReadOpts()}))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0]["bal"].(int64) != 42 {
		t.Fatalf("own write invisible: %v", rs.Rows[0])
	}
	s.Server().Commit(ctx, tx)
}

func TestWriteWriteConflictAborts(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	ctx := sim.NewCtx()

	t1 := s.Server().Begin(ctx)
	t2 := s.Server().Begin(ctx)
	upd := sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?")

	if err := s.Engine().Exec(ctx, upd, []schema.Value{int64(10), int64(1)},
		phoenix.WriteOpts{TS: t1.ID(), Read: t1.ReadOpts(), OnWrite: t1.RecordWrite}); err != nil {
		t.Fatal(err)
	}
	if err := s.Engine().Exec(ctx, upd, []schema.Value{int64(20), int64(1)},
		phoenix.WriteOpts{TS: t2.ID(), Read: t2.ReadOpts(), OnWrite: t2.RecordWrite}); err != nil {
		t.Fatal(err)
	}
	if err := s.Server().Commit(ctx, t1); err != nil {
		t.Fatalf("first committer should win: %v", err)
	}
	if err := s.Server().Commit(ctx, t2); !errors.Is(err, ErrConflict) {
		t.Fatalf("second committer error = %v, want ErrConflict", err)
	}
	// The losing write must be invisible.
	if bal, _ := balance(t, s, 1); bal != 10 {
		t.Fatalf("bal = %d, want 10", bal)
	}
	if st := s.Server().Stats(); st.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", st.Conflicts)
	}
}

func TestNoConflictOnDisjointRows(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "a")
	insert(t, s, 2, 200, "b")
	ctx := sim.NewCtx()
	t1 := s.Server().Begin(ctx)
	t2 := s.Server().Begin(ctx)
	upd := sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?")
	s.Engine().Exec(ctx, upd, []schema.Value{int64(1), int64(1)},
		phoenix.WriteOpts{TS: t1.ID(), Read: t1.ReadOpts(), OnWrite: t1.RecordWrite})
	s.Engine().Exec(ctx, upd, []schema.Value{int64(2), int64(2)},
		phoenix.WriteOpts{TS: t2.ID(), Read: t2.ReadOpts(), OnWrite: t2.RecordWrite})
	if err := s.Server().Commit(ctx, t1); err != nil {
		t.Fatal(err)
	}
	if err := s.Server().Commit(ctx, t2); err != nil {
		t.Fatalf("disjoint rows must not conflict: %v", err)
	}
}

func TestPerStatementOverheadMatchesPaper(t *testing.T) {
	s := newSession(t)
	insert(t, s, 1, 100, "alice")
	ctx := sim.NewCtx()
	sel := sqlparser.MustParse("SELECT bal FROM Account WHERE id = ?").(*sqlparser.SelectStmt)
	if _, err := drain(ctx)(s.QueryStream(ctx, sel, []schema.Value{int64(1)})); err != nil {
		t.Fatal(err)
	}
	// §IX-D4: "MVCC adds an overhead of 800-900 ms to each statement".
	lo, hi := sim.FromMillis(800), sim.FromMillis(950)
	if got := ctx.Elapsed(); got < lo || got > hi {
		t.Fatalf("per-statement elapsed = %v, want within [%v, %v]", got, lo, hi)
	}
}

func TestDeleteUnderMVCC(t *testing.T) {
	s := newSession(t)
	insert(t, s, 7, 70, "g")
	if err := s.Exec(sim.NewCtx(), sqlparser.MustParse("DELETE FROM Account WHERE id = ?"), []schema.Value{int64(7)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := balance(t, s, 7); ok {
		t.Fatal("row visible after MVCC delete")
	}
}

func TestConcurrentSessionsRace(t *testing.T) {
	s := newSession(t)
	for i := int64(1); i <= 8; i++ {
		insert(t, s, i, 0, "u")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int64) {
			defer wg.Done()
			upd := sqlparser.MustParse("UPDATE Account SET bal = ? WHERE id = ?")
			for i := 0; i < 8; i++ {
				err := s.Exec(sim.NewCtx(), upd, []schema.Value{int64(i), w + 1})
				if err != nil && !errors.Is(err, ErrConflict) {
					errs <- err
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Server().Stats()
	if st.Commits == 0 {
		t.Fatal("no transactions committed")
	}
}

func TestCommitTwiceRejected(t *testing.T) {
	s := newSession(t)
	ctx := sim.NewCtx()
	tx := s.Server().Begin(ctx)
	if err := s.Server().Commit(ctx, tx); err != nil {
		t.Fatal(err)
	}
	if err := s.Server().Commit(ctx, tx); !errors.Is(err, ErrFinished) {
		t.Fatalf("second commit = %v, want ErrFinished", err)
	}
}
