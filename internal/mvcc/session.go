package mvcc

import (
	"errors"

	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Session executes SQL statements as single-statement MVCC transactions
// through a Phoenix engine, with no view maintenance stack: the mechanism's
// own surface, which the package tests drive directly. The Baseline, MVCC-A
// and MVCC-UA systems of §IX-D2 do not run through it; they are
// synergy.System deployments in MVCC mode (see internal/bench/systems.go).
type Session struct {
	eng *phoenix.Engine
	srv *Server
}

// NewSession binds an engine to a transaction server.
func NewSession(eng *phoenix.Engine, srv *Server) *Session {
	return &Session{eng: eng, srv: srv}
}

// Engine exposes the underlying SQL engine.
func (s *Session) Engine() *phoenix.Engine { return s.eng }

// Server exposes the transaction server.
func (s *Session) Server() *Server { return s.srv }

// QueryStream runs a SELECT inside a snapshot transaction, returning a
// cursor. The transaction stays open for the cursor's lifetime and is
// settled by Close: committed after a clean drain, aborted if the cursor
// saw an error. The caller must Close the cursor and check its error.
func (s *Session) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	tx := s.srv.Begin(ctx)
	cur, err := s.eng.QueryStreamOpts(ctx, sel, params, phoenix.QueryOpts{Read: tx.ReadOpts()})
	if err != nil {
		s.srv.Abort(ctx, tx)
		return nil, err
	}
	return phoenix.WithClose(cur, func(ctx *sim.Ctx, inner phoenix.RowCursor) error {
		if inner.Err() != nil {
			s.srv.Abort(ctx, tx)
			return nil
		}
		return s.srv.Commit(ctx, tx)
	}), nil
}

// Exec runs a write statement inside a transaction; on conflict the error is
// ErrConflict and the transaction's writes are invisible.
func (s *Session) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	tx := s.srv.Begin(ctx)
	err := s.eng.Exec(ctx, stmt, params, phoenix.WriteOpts{
		TS:      tx.ID(),
		Read:    tx.ReadOpts(),
		OnWrite: tx.RecordWrite,
	})
	if err != nil {
		s.srv.Abort(ctx, tx)
		return err
	}
	return s.srv.Commit(ctx, tx)
}

// SessionTx is one multi-statement snapshot transaction with read-your-
// writes: every write statement buffers into a transaction-scoped mutator
// instead of flushing per statement, queries and the read-before-write of
// UPDATE/DELETE merge the pending buffer over the snapshot through the
// overlay, Commit flushes once and then runs conflict detection, and Abort
// discards the buffer with nothing persisted.
type SessionTx struct {
	sess *Session
	tx   *Tx
	mut  *hbase.BufferedMutator
	used bool // a statement has run (next one checkpoints first)
	done bool
}

// BeginTxn opens a multi-statement transaction on the session.
func (s *Session) BeginTxn(ctx *sim.Ctx) *SessionTx {
	tx := s.srv.Begin(ctx)
	return &SessionTx{sess: s, tx: tx, mut: s.eng.Client().NewTxMutator()}
}

// ErrFinishedTxn reports use of a session transaction after Commit/Abort.
var ErrFinishedTxn = errors.New("mvcc: session transaction already finished")

// writeOpts returns the per-statement options carrying the transaction's
// snapshot, write-set recorder and shared mutator.
func (t *SessionTx) writeOpts() phoenix.WriteOpts {
	return phoenix.WriteOpts{
		TS:      t.tx.ID(),
		Read:    t.tx.ReadOpts(),
		OnWrite: t.tx.RecordWrite,
		Mutator: t.mut,
	}
}

// Exec buffers one write statement into the transaction. Each statement
// after the first runs at a fresh checkpoint (write pointer), so a
// statement's deletes never shadow a later statement's puts on the same
// row at an equal timestamp.
func (t *SessionTx) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	if t.done {
		return ErrFinishedTxn
	}
	if t.used {
		t.tx.Checkpoint(ctx)
	}
	t.used = true
	return t.sess.eng.Exec(ctx, stmt, params, t.writeOpts())
}

// QueryStream runs a SELECT inside the transaction as a cursor; scans and
// point lookups see the transaction's own buffered writes merged over its
// snapshot. The cursor holds no transaction state: Close only releases the
// scanner. It must be closed before the next statement runs (the next Exec
// advances the transaction's checkpoint).
func (t *SessionTx) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	if t.done {
		return nil, ErrFinishedTxn
	}
	return t.sess.eng.QueryStreamOpts(ctx, sel, params, phoenix.QueryOpts{Read: t.tx.ReadOpts(), View: t.mut.View()})
}

// Commit flushes the buffered writes as one batch round, then finishes the
// transaction (conflict detection included).
func (t *SessionTx) Commit(ctx *sim.Ctx) error {
	if t.done {
		return ErrFinishedTxn
	}
	t.done = true
	if err := t.mut.Flush(ctx); err != nil {
		t.sess.srv.Abort(ctx, t.tx)
		return err
	}
	return t.sess.srv.Commit(ctx, t.tx)
}

// Abort discards the buffered writes — nothing reaches the store — and
// invalidates the transaction.
func (t *SessionTx) Abort(ctx *sim.Ctx) {
	if t.done {
		return
	}
	t.done = true
	t.mut.Discard()
	t.sess.srv.Abort(ctx, t.tx)
}
