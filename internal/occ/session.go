package occ

import (
	"synergy/internal/hbase"
	"synergy/internal/phoenix"
	"synergy/internal/schema"
	"synergy/internal/sim"
	"synergy/internal/sqlparser"
)

// Session executes SQL statements through a Phoenix engine under optimistic
// concurrency control, the session-transaction mirror of mvcc.Session for
// the OCC configuration.
type Session struct {
	eng *phoenix.Engine
	v   *Validator
}

// NewSession binds an engine to a validator.
func NewSession(eng *phoenix.Engine, v *Validator) *Session {
	return &Session{eng: eng, v: v}
}

// Engine exposes the underlying SQL engine.
func (s *Session) Engine() *phoenix.Engine { return s.eng }

// Validator exposes the validation service.
func (s *Session) Validator() *Validator { return s.v }

// QueryStream runs a SELECT against a fresh begin-timestamp snapshot as a
// streaming cursor. Read-only snapshot reads are serializable as of their
// begin point and need no validation, so the transaction costs one
// timestamp fetch and nothing else. Snapshot reads carry no transaction
// state, so Close only releases the region scanner; the begin timestamp
// pins visibility for the cursor's whole lifetime.
func (s *Session) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	return s.eng.QueryStreamOpts(ctx, sel, params, phoenix.QueryOpts{Read: hbase.SnapshotRead(s.v.SnapshotTS(ctx))})
}

// Exec runs one write statement as its own optimistic transaction. A
// validation conflict surfaces as ErrConflict; the caller owns the retry
// policy (the synergy transaction layer retries with bounded backoff).
func (s *Session) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	tx := s.BeginTxn(ctx)
	if err := tx.Exec(ctx, stmt, params); err != nil {
		tx.Abort(ctx)
		return err
	}
	return tx.Commit(ctx)
}

// SessionTx is one multi-statement optimistic transaction: statements buffer
// into a transaction-scoped mutator, every read (query scans, point lookups
// and the read-before-write of UPDATE/DELETE) goes through the tracking
// read-your-writes view so the read set is complete, and Commit validates
// backward before flushing — on conflict nothing reaches the store.
type SessionTx struct {
	sess *Session
	tx   *Tx
	mut  *hbase.BufferedMutator
	rd   hbase.Reader // tracking reader over the RYW view
	done bool
}

// BeginTxn opens a multi-statement optimistic transaction on the session.
func (s *Session) BeginTxn(ctx *sim.Ctx) *SessionTx {
	tx := s.v.Begin(ctx)
	mut := s.eng.Client().NewTxMutator()
	return &SessionTx{sess: s, tx: tx, mut: mut, rd: tx.Track(mut.View())}
}

// writeOpts returns the per-statement options carrying the transaction's
// snapshot, read/write-set recorders and shared mutator. Mutations stay
// unstamped (TS 0): the commit flush assigns store timestamps, all above the
// flush watermark the validator allocated.
func (t *SessionTx) writeOpts() phoenix.WriteOpts {
	return phoenix.WriteOpts{
		Read:    t.tx.ReadOpts(),
		OnWrite: t.tx.RecordWrite,
		Mutator: t.mut,
		Reader:  t.rd,
	}
}

// Exec buffers one write statement into the transaction.
func (t *SessionTx) Exec(ctx *sim.Ctx, stmt sqlparser.Statement, params []schema.Value) error {
	if t.done {
		return ErrFinished
	}
	return t.sess.eng.Exec(ctx, stmt, params, t.writeOpts())
}

// QueryStream runs a SELECT inside the transaction as a cursor: scans and
// point lookups see the transaction's own buffered writes merged over its
// snapshot, and rows stream off the tracking reader, so the scanned ranges
// and keys join the read set at open time. The cursor holds no transaction
// state — Close only releases the scanner, and the transaction outlives the
// cursor.
func (t *SessionTx) QueryStream(ctx *sim.Ctx, sel *sqlparser.SelectStmt, params []schema.Value) (phoenix.RowCursor, error) {
	if t.done {
		return nil, ErrFinished
	}
	return t.sess.eng.QueryStreamOpts(ctx, sel, params, phoenix.QueryOpts{Read: t.tx.ReadOpts(), Reader: t.rd})
}

// Commit validates backward and, on success, flushes the buffered writes as
// one batch round (their timestamps were reserved at validation). On
// conflict the buffer is discarded — nothing reached the store — and
// ErrConflict returns; the caller may retry with a fresh BeginTxn.
func (t *SessionTx) Commit(ctx *sim.Ctx) error {
	if t.done {
		return ErrFinished
	}
	t.done = true
	if err := t.sess.v.Validate(ctx, t.tx, t.mut.StampPending); err != nil {
		t.mut.Discard()
		return err
	}
	if err := t.mut.Flush(ctx); err != nil {
		t.sess.v.AbandonFlush(ctx, t.tx)
		return err
	}
	t.sess.v.Finalize(ctx, t.tx)
	return nil
}

// Abort discards the buffered writes — nothing reaches the store.
func (t *SessionTx) Abort(ctx *sim.Ctx) {
	if t.done {
		return
	}
	t.done = true
	t.mut.Discard()
	t.sess.v.Abort(ctx, t.tx)
}
