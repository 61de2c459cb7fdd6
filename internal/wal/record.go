package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/storage"
)

// Record kinds (the first payload byte).
const (
	recSym     = 1 // body: constant name
	recFact    = 2 // body: pred string, uvarint arity, arity uvarint values
	recRule    = 3 // body: rule source text
	recRetract = 4 // body: same layout as recFact; the tuple leaves the set
)

// recordHeaderSize is the length + CRC prefix of every record.
const recordHeaderSize = 8

// maxRecordSize bounds a single record; a length field above it is
// treated as a torn/corrupt tail rather than an allocation request.
const maxRecordSize = 64 << 20

// castagnoli is the CRC polynomial table shared by records and
// snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendString appends a uvarint-length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readString consumes a uvarint-length-prefixed string.
func readString(b []byte) (string, []byte, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)-sz) {
		return "", nil, fmt.Errorf("wal: truncated string")
	}
	return string(b[sz : sz+int(n)]), b[sz+int(n):], nil
}

// sealRecord fills in the header reserved at the front of rec — the
// length and CRC of the payload that follows it — and returns rec.
// Records are framed in place this way: reserve recordHeaderSize bytes,
// append the payload, seal.
func sealRecord(rec []byte) []byte {
	payload := rec[recordHeaderSize:]
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(payload, castagnoli))
	return rec
}

// textRecord frames a record whose body is raw text after the kind byte
// (recSym's name, recRule's source).
func textRecord(kind byte, text string) []byte {
	rec := make([]byte, recordHeaderSize, recordHeaderSize+1+len(text))
	return sealRecord(append(append(rec, kind), text...))
}

// tupleRecordMax bounds the framed size of a kind + pred + tuple record
// of the given arity, for presizing run buffers.
func tupleRecordMax(pred string, arity int) int {
	return recordHeaderSize + 1 + binary.MaxVarintLen32*(2+arity) + len(pred)
}

// appendTupleRecord frames a kind-byte + pred + tuple record in place at
// the end of dst.
func appendTupleRecord(dst []byte, kind byte, pred string, t storage.Tuple) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recordHeaderSize)...)
	dst = append(dst, kind)
	dst = appendString(dst, pred)
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = binary.AppendUvarint(dst, uint64(uint32(v)))
	}
	sealRecord(dst[start:])
	return dst
}

// decodeFact parses a recFact body (the payload after the kind byte).
func decodeFact(body []byte) (pred string, vals []storage.Value, err error) {
	pred, body, err = readString(body)
	if err != nil {
		return "", nil, err
	}
	arity, sz := binary.Uvarint(body)
	if sz <= 0 {
		return "", nil, fmt.Errorf("wal: truncated fact arity")
	}
	body = body[sz:]
	vals = make([]storage.Value, arity)
	for i := range vals {
		v, sz := binary.Uvarint(body)
		if sz <= 0 || v > 0xFFFFFFFF {
			return "", nil, fmt.Errorf("wal: truncated fact value")
		}
		vals[i] = storage.Value(uint32(v))
		body = body[sz:]
	}
	if len(body) != 0 {
		return "", nil, fmt.Errorf("wal: %d trailing bytes after fact", len(body))
	}
	return pred, vals, nil
}

// nextRecord splits the first framed record off data. ok is false when
// data holds no complete valid record — the torn-tail condition; the
// caller decides whether that is tolerable (final segment) or corruption
// (sealed segment).
func nextRecord(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < recordHeaderSize {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint32(data[0:]))
	crc := binary.LittleEndian.Uint32(data[4:])
	if n > maxRecordSize || n > len(data)-recordHeaderSize {
		return nil, nil, false
	}
	payload = data[recordHeaderSize : recordHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, nil, false
	}
	return payload, data[recordHeaderSize+n:], true
}
