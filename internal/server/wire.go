package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"synergy/internal/phoenix"
	"synergy/internal/schema"
)

// Commands of the MySQL client/server protocol this server implements.
const (
	comQuit        = 0x01
	comInitDB      = 0x02
	comQuery       = 0x03
	comFieldList   = 0x04
	comPing        = 0x0e
	comStmtPrepare = 0x16
	comStmtExecute = 0x17
	comStmtClose   = 0x19
)

// Column wire types (subset). phoenix results carry int64/float64/string,
// mapped to LONGLONG/DOUBLE/VAR_STRING; the execute decoder accepts the
// common client-sent types beyond those.
const (
	typeTiny       = 0x01
	typeShort      = 0x02
	typeLong       = 0x03
	typeFloat      = 0x04
	typeDouble     = 0x05
	typeNull       = 0x06
	typeLonglong   = 0x08
	typeInt24      = 0x09
	typeVarchar    = 0x0f
	typeNewDecimal = 0xf6
	typeBlob       = 0xfc
	typeVarString  = 0xfd
	typeString     = 0xfe
)

// Capability flags (subset).
const (
	capLongPassword  = 0x00000001
	capConnectWithDB = 0x00000008
	capProtocol41    = 0x00000200
	capTransactions  = 0x00002000
	capSecureConn    = 0x00008000
)

// Status flags.
const (
	statusInTrans    = 0x0001
	statusAutocommit = 0x0002
)

// Error codes (MySQL numbering where a faithful match exists).
const (
	errConCount     = 1040 // too many connections / admission queue full
	errParse        = 1064
	errUnknownCom   = 1047
	errUnknownVar   = 1193
	errWrongVarVal  = 1231
	errLockWait     = 1205
	errDeadlock     = 1213 // concurrency conflict (OCC/MVCC)
	errUnknownTable = 1146
	errUnknownCol   = 1054
	errTooManyStmts = 1461
	errUnknown      = 1105
)

const (
	charsetUTF8   = 33
	charsetBinary = 63
)

// wireTypeOf maps a phoenix column type to its wire type.
func wireTypeOf(t schema.ColType) byte {
	switch t {
	case schema.TInt:
		return typeLonglong
	case schema.TFloat:
		return typeDouble
	default:
		return typeVarString
	}
}

// formatValue renders a value for the text protocol; ok=false means NULL.
func formatValue(v schema.Value) (string, bool) {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10), true
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64), true
	case string:
		return x, true
	default:
		return "", false
	}
}

// appendOK appends an OK packet payload.
func appendOK(b []byte, affected uint64, status uint16, info string) []byte {
	b = append(b, 0x00)
	b = appendLencInt(b, affected)
	b = appendLencInt(b, 0) // last insert id
	b = binary.LittleEndian.AppendUint16(b, status)
	b = binary.LittleEndian.AppendUint16(b, 0) // warnings
	return append(b, info...)
}

// appendErr appends an ERR packet payload.
func appendErr(b []byte, code uint16, sqlState, msg string) []byte {
	b = append(b, 0xff)
	b = binary.LittleEndian.AppendUint16(b, code)
	b = append(b, '#')
	if len(sqlState) != 5 {
		sqlState = "HY000"
	}
	b = append(b, sqlState...)
	return append(b, msg...)
}

// appendEOF appends an EOF packet payload.
func appendEOF(b []byte, status uint16) []byte {
	b = append(b, 0xfe)
	b = binary.LittleEndian.AppendUint16(b, 0) // warnings
	return binary.LittleEndian.AppendUint16(b, status)
}

// columnDef builds a protocol-4.1 column definition packet payload.
func columnDef(name string, wireType byte) []byte {
	b := make([]byte, 0, 64)
	b = appendLencString(b, "def")     // catalog
	b = appendLencString(b, "synergy") // schema
	b = appendLencString(b, "")        // table
	b = appendLencString(b, "")        // org table
	b = appendLencString(b, name)
	b = appendLencString(b, name) // org name
	b = appendLencInt(b, 0x0c)    // fixed-length fields
	charset := uint16(charsetUTF8)
	length := uint32(255 * 3)
	decimals := byte(0)
	switch wireType {
	case typeLonglong:
		charset, length = charsetBinary, 21
	case typeDouble:
		charset, length, decimals = charsetBinary, 22, 31
	}
	b = binary.LittleEndian.AppendUint16(b, charset)
	b = binary.LittleEndian.AppendUint32(b, length)
	b = append(b, wireType)
	b = binary.LittleEndian.AppendUint16(b, 0) // flags
	b = append(b, decimals)
	return append(b, 0x00, 0x00) // filler
}

// Row encoders append onto a caller-owned scratch buffer: the connection
// reuses one slice across rows and statements, so the steady-state row
// encode path performs no allocations. Every result set — drained or
// streamed, decoded or raw — goes through writeCursor and these appenders,
// which is what keeps the streamed and drained wire bytes identical by
// construction.

// appendTextValue appends one text-protocol value (lenc string or 0xfb NULL).
// Numbers are formatted with strconv.Append* into a stack buffer, matching
// formatValue byte for byte without its string allocation.
func appendTextValue(b []byte, v schema.Value) []byte {
	switch x := v.(type) {
	case int64:
		var tmp [20]byte
		s := strconv.AppendInt(tmp[:0], x, 10)
		b = appendLencInt(b, uint64(len(s)))
		return append(b, s...)
	case float64:
		var tmp [32]byte
		s := strconv.AppendFloat(tmp[:0], x, 'g', -1, 64)
		b = appendLencInt(b, uint64(len(s)))
		return append(b, s...)
	case string:
		return appendLencString(b, x)
	default:
		return append(b, 0xfb) // NULL
	}
}

// appendTextRow appends a text-protocol row packet payload.
func appendTextRow(b []byte, cols []string, row schema.Row) []byte {
	for _, col := range cols {
		b = appendTextValue(b, row[col])
	}
	return b
}

// appendBinaryValue appends one binary-protocol value by its column's wire
// type. A value that disagrees with the declared type falls back to the
// lenc text rendering instead of panicking on a bad assertion — reachable
// when a column stores mixed types and the declared (or first-inspected)
// type doesn't match a later row.
func appendBinaryValue(b []byte, wireType byte, v schema.Value) []byte {
	switch wireType {
	case typeLonglong:
		if x, ok := v.(int64); ok {
			return binary.LittleEndian.AppendUint64(b, uint64(x))
		}
	case typeDouble:
		if x, ok := v.(float64); ok {
			return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return appendTextValue(b, v)
}

// appendBinaryRow appends a binary-protocol row packet payload
// (prepared-statement result sets): 0x00 header, a null bitmap with bit
// offset 2, then each non-NULL value encoded by its column's wire type.
func appendBinaryRow(b []byte, cols []string, types []byte, row schema.Row) []byte {
	start := len(b)
	b = append(b, 0x00)
	for n := (len(cols) + 7 + 2) / 8; n > 0; n-- {
		b = append(b, 0x00)
	}
	for i, col := range cols {
		v := row[col]
		if v == nil {
			pos := i + 2
			b[start+1+pos/8] |= 1 << (pos % 8)
			continue
		}
		b = appendBinaryValue(b, types[i], v)
	}
	return b
}

// appendRawTextValue appends one text-protocol value straight from its
// stored cell encoding: strings are copied payload-to-wire with no
// intermediate string, numbers are formatted from the decoded bits. Output
// is byte-identical to appendTextValue over the decoded value.
func appendRawTextValue(b []byte, raw []byte) []byte {
	switch phoenix.RawCellKind(raw) {
	case phoenix.CellInt:
		var tmp [20]byte
		s := strconv.AppendInt(tmp[:0], phoenix.RawCellInt(raw), 10)
		b = appendLencInt(b, uint64(len(s)))
		return append(b, s...)
	case phoenix.CellFloat:
		var tmp [32]byte
		s := strconv.AppendFloat(tmp[:0], phoenix.RawCellFloat(raw), 'g', -1, 64)
		b = appendLencInt(b, uint64(len(s)))
		return append(b, s...)
	case phoenix.CellString:
		p := phoenix.RawCellBytes(raw)
		b = appendLencInt(b, uint64(len(p)))
		return append(b, p...)
	default:
		return append(b, 0xfb) // NULL
	}
}

// appendTextRowRaw appends a text-protocol row packet payload from a raw
// cursor's current row without decoding values.
func appendTextRowRaw(b []byte, cur phoenix.RawCursor, ncols int) []byte {
	for i := 0; i < ncols; i++ {
		b = appendRawTextValue(b, cur.RawValue(i))
	}
	return b
}

// appendBinaryRowRaw appends a binary-protocol row packet payload from a raw
// cursor's current row. Values whose stored kind matches the declared wire
// type encode straight from the cell bits; mismatches fall back to the lenc
// text rendering, mirroring appendBinaryValue.
func appendBinaryRowRaw(b []byte, types []byte, cur phoenix.RawCursor) []byte {
	start := len(b)
	b = append(b, 0x00)
	for n := (len(types) + 7 + 2) / 8; n > 0; n-- {
		b = append(b, 0x00)
	}
	for i := range types {
		raw := cur.RawValue(i)
		kind := phoenix.RawCellKind(raw)
		if kind == phoenix.CellNull {
			pos := i + 2
			b[start+1+pos/8] |= 1 << (pos % 8)
			continue
		}
		switch {
		case types[i] == typeLonglong && kind == phoenix.CellInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(phoenix.RawCellInt(raw)))
		case types[i] == typeDouble && kind == phoenix.CellFloat:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(phoenix.RawCellFloat(raw)))
		default:
			b = appendRawTextValue(b, raw)
		}
	}
	return b
}

// decodeBinaryValue decodes one execute-request parameter of the given wire
// type at b[off], returning a schema.Value (int64, float64 or string).
func decodeBinaryValue(b []byte, off int, wireType byte, unsigned bool) (schema.Value, int, error) {
	need := func(n int) error {
		if off+n > len(b) {
			return errShortPacket
		}
		return nil
	}
	switch wireType {
	case typeNull:
		return nil, off, nil
	case typeTiny:
		if err := need(1); err != nil {
			return nil, 0, err
		}
		if unsigned {
			return int64(b[off]), off + 1, nil
		}
		return int64(int8(b[off])), off + 1, nil
	case typeShort:
		if err := need(2); err != nil {
			return nil, 0, err
		}
		u := binary.LittleEndian.Uint16(b[off:])
		if unsigned {
			return int64(u), off + 2, nil
		}
		return int64(int16(u)), off + 2, nil
	case typeLong, typeInt24:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		u := binary.LittleEndian.Uint32(b[off:])
		if unsigned {
			return int64(u), off + 4, nil
		}
		return int64(int32(u)), off + 4, nil
	case typeLonglong:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		u := binary.LittleEndian.Uint64(b[off:])
		if unsigned && u > math.MaxInt64 {
			// schema.Value carries integers as int64; refuse rather than
			// silently wrap to a negative parameter.
			return nil, 0, fmt.Errorf("server: unsigned BIGINT parameter %d out of range (max %d)", u, int64(math.MaxInt64))
		}
		return int64(u), off + 8, nil
	case typeFloat:
		if err := need(4); err != nil {
			return nil, 0, err
		}
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))), off + 4, nil
	case typeDouble:
		if err := need(8); err != nil {
			return nil, 0, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b[off:])), off + 8, nil
	case typeVarchar, typeVarString, typeString, typeBlob, typeNewDecimal:
		s, next, err := readLencBytes(b, off)
		if err != nil {
			return nil, 0, err
		}
		return string(s), next, nil
	default:
		return nil, 0, fmt.Errorf("server: unsupported parameter wire type 0x%02x", wireType)
	}
}
