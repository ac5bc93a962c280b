package storage

// On-disk record codec shared by the WAL and SSTables: one version per
// record, CRC-framed so recovery and table loading can detect torn or
// bit-flipped data and stop at the last clean record.
//
//	frame:   u32 payloadLen | u32 crc32c(payload) | payload
//	payload: u16 keyLen | key | u64 seq | u8 flags | f64 writtenAt |
//	         u32 valueLen | value | u16 clockLen | (u32 node | u64 ctr)* |
//	         [u32 target]
//
// A WAL record whose flags carry flagHintStore or flagHintClear is a
// hinted-handoff change, not data: the version is the hint, and the
// trailing target names the replica it is for. SSTables hold data records
// only.
//
// The version order is Seq alone, so writers emit clockLen 0. The field
// stays because segments and tables written when every version carried a
// vector clock hold entries there; the decoder skips them.
//
// The codec is deliberately separate from the replication transport's
// (internal/server): wire frames carry no checksum because TCP already
// does, while disk frames must survive torn writes and silent corruption.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pbs/internal/kvstore"
)

const (
	// frameHeaderLen is the fixed per-record overhead: length + CRC.
	frameHeaderLen = 8
	// maxRecordBytes bounds one payload so a corrupt length prefix cannot
	// trigger a huge allocation (matches the transport's frame bound).
	maxRecordBytes = 16 << 20

	flagTombstone byte = 1 << 0
	// flagHintStore and flagHintClear mark a hint buffered for, or
	// delivered to, the record's target replica.
	flagHintStore byte = 1 << 1
	flagHintClear byte = 1 << 2
	hintFlags          = flagHintStore | flagHintClear
)

// record is one decoded frame: a data version or, in the WAL only, a hint
// change (kind flagHintStore or flagHintClear) for replica target.
type record struct {
	kvstore.Version
	kind   byte // 0 for data
	target int
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorruptRecord marks a frame that fails its length or CRC check — the
// signal to stop replay at the preceding clean prefix.
var errCorruptRecord = errors.New("storage: corrupt record")

// encodePayload appends a record payload to dst: v as data (kind 0) or as
// a hint change of the given kind for target.
func encodePayload(dst []byte, v kvstore.Version, kind byte, target int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(v.Key)))
	dst = append(dst, v.Key...)
	dst = binary.BigEndian.AppendUint64(dst, v.Seq)
	flags := kind
	if v.Tombstone {
		flags |= flagTombstone
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v.WrittenAt))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v.Value)))
	dst = append(dst, v.Value...)
	dst = binary.BigEndian.AppendUint16(dst, 0) // clockLen
	if kind != 0 {
		dst = binary.BigEndian.AppendUint32(dst, uint32(target))
	}
	return dst
}

// decodePayload parses one record payload. Trailing bytes are rejected:
// a frame holds exactly one record.
func decodePayload(b []byte) (record, error) {
	var rec record
	v := &rec.Version
	take := func(n int) ([]byte, error) {
		if len(b) < n {
			return nil, errCorruptRecord
		}
		out := b[:n]
		b = b[n:]
		return out, nil
	}
	kl, err := take(2)
	if err != nil {
		return rec, err
	}
	key, err := take(int(binary.BigEndian.Uint16(kl)))
	if err != nil {
		return rec, err
	}
	v.Key = string(key)
	hdr, err := take(8 + 1 + 8)
	if err != nil {
		return rec, err
	}
	v.Seq = binary.BigEndian.Uint64(hdr)
	v.Tombstone = hdr[8]&flagTombstone != 0
	if rec.kind = hdr[8] & hintFlags; rec.kind == hintFlags {
		return rec, errCorruptRecord
	}
	v.WrittenAt = math.Float64frombits(binary.BigEndian.Uint64(hdr[9:]))
	vl, err := take(4)
	if err != nil {
		return rec, err
	}
	val, err := take(int(binary.BigEndian.Uint32(vl)))
	if err != nil {
		return rec, err
	}
	v.Value = string(val)
	cl, err := take(2)
	if err != nil {
		return rec, err
	}
	if _, err := take(12 * int(binary.BigEndian.Uint16(cl))); err != nil {
		return rec, err
	}
	if rec.kind != 0 {
		t, err := take(4)
		if err != nil {
			return rec, err
		}
		rec.target = int(int32(binary.BigEndian.Uint32(t)))
	}
	if len(b) != 0 {
		return rec, errCorruptRecord
	}
	return rec, nil
}

// appendFrame appends one framed record (header + payload) to dst.
func appendFrame(dst []byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// encodeRecord frames v as a data record into a fresh byte slice.
func encodeRecord(v kvstore.Version) []byte {
	return encodeHintRecord(0, 0, v)
}

// encodeHintRecord frames a hint change of the given kind (0 for data)
// into a fresh byte slice.
func encodeHintRecord(kind byte, target int, v kvstore.Version) []byte {
	payload := encodePayload(nil, v, kind, target)
	return appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), payload)
}

// readRecord reads one framed record from r. It returns io.EOF at a clean
// end of stream and errCorruptRecord (or a wrapped read error) on a torn
// or bit-flipped frame — callers replaying a log stop there, keeping the
// clean prefix.
func readRecord(r *bufio.Reader) (rec record, frameLen int, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return rec, 0, io.EOF
		}
		return rec, 0, fmt.Errorf("%w: torn header: %v", errCorruptRecord, err)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxRecordBytes {
		return rec, 0, fmt.Errorf("%w: %d-byte payload exceeds limit", errCorruptRecord, n)
	}
	frame := make([]byte, frameHeaderLen+int(n))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[frameHeaderLen:]); err != nil {
		return rec, 0, fmt.Errorf("%w: torn payload: %v", errCorruptRecord, err)
	}
	rec, err = decodeFrame(frame)
	if err != nil {
		return rec, 0, err
	}
	return rec, len(frame), nil
}

// decodeFrame checks one whole frame — its length prefix must cover exactly
// the rest of frame, and its CRC must match the payload — and decodes the
// record. The record copies what it keeps, so frame may be reused.
func decodeFrame(frame []byte) (record, error) {
	if len(frame) < frameHeaderLen || int(binary.BigEndian.Uint32(frame)) != len(frame)-frameHeaderLen {
		return record{}, fmt.Errorf("%w: frame length mismatch", errCorruptRecord)
	}
	payload := frame[frameHeaderLen:]
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(frame[4:]) {
		return record{}, fmt.Errorf("%w: checksum mismatch", errCorruptRecord)
	}
	return decodePayload(payload)
}
