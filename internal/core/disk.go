package core

import (
	"bytes"
	"fmt"

	"mdcc/internal/kv"
	"mdcc/internal/record"
	"mdcc/internal/transport"
	"mdcc/internal/wal"
)

// Disk records: the decision records core writes into the node's log
// beside kv's 0xD1 puts, and the checkpoint snapshot payload, written
// with the wire's primitives and the very sub-encoders the messages use
// (record.AppendUpdate, appendLineage, kv.AppendEntry). Each opens with
// a format byte (see wal.ErrFormat):
//
//	oplog entry: 0xD2 | string Key | bool snapshot |
//	               snapshot:  LineageSummary
//	               decision:  string Tx | u8 Decision | uvarint KeySeq |
//	                          bool HasUp | [Update]
//	snapshot:    0xD4 | uvarint Cut |
//	             uvarint n | n × kv entry | uvarint m | m × oplog entry body
//
// A change to either layout takes a new format byte, so an older
// directory is refused (wal.ErrFormat), never mis-read: 0xD3 was the
// snapshot of the two-log layout, which carried a cut per log.
const (
	oplogFormat    = 0xD2
	snapshotFormat = 0xD4
)

func appendOplogEntry(b []byte, e *oplogEntry) []byte {
	b = transport.AppendString(b, string(e.Key))
	b = transport.AppendBool(b, e.Snapshot != nil)
	if e.Snapshot != nil {
		return appendLineage(b, *e.Snapshot)
	}
	return append(b, e.Decision...) // a decided-log entry, expanded
}

func readOplogEntry(r *transport.WireReader) oplogEntry {
	e := oplogEntry{Key: record.Key(r.InternString())}
	if r.Bool() {
		s := readLineage(r, nil)
		e.Snapshot = &s
		return e
	}
	tx := TxID(r.String())
	d := Decision(r.Byte())
	keySeq := r.Uvarint()
	var up *record.Update
	if r.Bool() {
		// Decoding validates the update; re-encoding the body gives the
		// entry its own copy of the bytes, in canonical form.
		u := record.ReadUpdate(r)
		up = &u
	}
	var scratch [256]byte
	e.Decision = bytes.Clone(appendDecision(scratch[:0], tx, d, keySeq, up))
	return e
}

// decodeOplogRecord parses one decision record; anything but a
// well-formed entry in the current format is a wal.ErrFormat.
func decodeOplogRecord(payload []byte) (oplogEntry, error) {
	body, err := wal.Body(payload, oplogFormat, "oplog entry")
	if err != nil {
		return oplogEntry{}, err
	}
	r := transport.NewWireReader(body)
	e := readOplogEntry(r)
	if err := r.Err(); err != nil {
		return oplogEntry{}, fmt.Errorf("%w: oplog entry: %v", wal.ErrFormat, err)
	}
	return e, nil
}

// appendSnapshot encodes a checkpoint. kvRows appends the counted kv
// entry list (kv.Store.AppendEntries: the store writes its rows from
// their stored form, so a checkpoint builds no record.Value per key).
func appendSnapshot(b []byte, cut int, kvRows func([]byte) []byte, oplog []oplogEntry) []byte {
	b = append(b, snapshotFormat)
	b = transport.AppendUvarint(b, uint64(cut))
	b = kvRows(b)
	b = transport.AppendUvarint(b, uint64(len(oplog)))
	for i := range oplog {
		b = appendOplogEntry(b, &oplog[i])
	}
	return b
}

// decodeSnapshot parses a checkpoint payload (already CRC-checked by
// wal.ReadSnapshot); anything but a well-formed snapshot in the
// current format is a wal.ErrFormat.
func decodeSnapshot(payload []byte) (*snapshotState, error) {
	body, err := wal.Body(payload, snapshotFormat, "checkpoint snapshot")
	if err != nil {
		return nil, err
	}
	r := transport.NewWireReader(body)
	st := &snapshotState{Cut: int(r.Uvarint())}
	if n := r.Count("kv entry"); n > 0 {
		st.KV = make([]kv.Entry, 0, n)
		for i := 0; i < n; i++ {
			st.KV = append(st.KV, kv.ReadEntry(r))
		}
	}
	if n := r.Count("oplog entry"); n > 0 {
		st.Oplog = make([]oplogEntry, 0, n)
		for i := 0; i < n; i++ {
			st.Oplog = append(st.Oplog, readOplogEntry(r))
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: checkpoint snapshot: %v", wal.ErrFormat, err)
	}
	return st, nil
}
