package storage

// Immutable sorted string tables. An SSTable is a key-sorted sequence of
// CRC-framed records, written once (tmp file + fsync + atomic rename) and
// never modified. Once in place a table is mapped read-only (mapTable).
// Opening it walks the mapping and indexes every key's metadata (seq,
// tombstone, frame offset) without decoding a value, so Apply's newness
// check and Merkle summaries read only the index, and a Get of a
// table-resident value copies just that value out of the mapping: no
// storage syscall.
//
// Lifetime: mapped bytes are read only under the engine lock, or by the
// single running compaction over its snapshot. A table is unmapped only
// after it has left e.tables under the engine lock, which happens at the
// compaction swap and at Close. Nothing returned to a caller aliases the
// mapping, so a value read before an unmap stays valid after it.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sort"

	"pbs/internal/kvstore"
)

// tableWriteBuf is the write buffer of a table being written: a flush or
// a compaction writes a whole table at once, so a large buffer saves
// write syscalls.
const tableWriteBuf = 64 << 10

// tableEntry is one key's index record inside an SSTable.
type tableEntry struct {
	key       string // the index's own key, so a point read copies only the value
	seq       uint64
	writtenAt float64
	off       int // frame offset within the table
	tombstone bool
}

type sstable struct {
	path  string
	gen   uint64
	data  []byte // the mapped file
	index map[string]tableEntry
}

// writeSSTable writes versions (any order; sorted here) to a new table at
// path.
func writeSSTable(path string, versions []kvstore.Version) error {
	sort.Slice(versions, func(i, j int) bool { return versions[i].Key < versions[j].Key })
	return writeTable(path, func(w io.Writer) error {
		var buf []byte
		for _, v := range versions {
			buf = appendRecord(buf[:0], 0, 0, v)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeTable writes a new table at path with fill, via a tmp file that is
// fsynced and renamed into place: a torn write leaves only a tmp file that
// recovery deletes.
func writeTable(path string, fill func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: write sstable: %w", err)
	}
	bw := bufio.NewWriterSize(f, tableWriteBuf)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write sstable: %w", err)
	}
	return nil
}

// openSSTable maps and indexes a table. Unlike WAL replay, corruption here
// is fatal: tables are fsynced before the rename that makes them visible,
// so a bad frame means real damage, not a torn tail. Keys must be strictly
// increasing, as every writer emits them; the compaction merge relies on
// it.
func openSSTable(path string, gen uint64) (*sstable, error) {
	data, err := mapTable(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open sstable: %w", err)
	}
	t := &sstable{path: path, gen: gen, data: data, index: make(map[string]tableEntry)}
	var prev []byte
	for off := 0; off < len(data); {
		rv, n, err := t.frameAt(off)
		if err == nil && off > 0 && bytes.Compare(rv.key, prev) <= 0 {
			err = fmt.Errorf("%w: key out of order", errCorruptRecord)
		}
		if err != nil {
			t.close()
			return nil, fmt.Errorf("storage: sstable %s at offset %d: %w", path, off, err)
		}
		key := string(rv.key)
		t.index[key] = tableEntry{key: key, seq: rv.seq, writtenAt: rv.writtenAt, off: off, tombstone: rv.tombstone}
		prev = rv.key
		off += n
	}
	return t, nil
}

// frameAt parses the frame at off, checking its length bound and CRC, and
// returns it with its length. The view aliases the mapping.
func (t *sstable) frameAt(off int) (recordView, int, error) {
	rest := t.data[off:]
	if len(rest) < frameHeaderLen {
		return recordView{}, 0, fmt.Errorf("%w: torn header", errCorruptRecord)
	}
	n := binary.BigEndian.Uint32(rest)
	if n > maxRecordBytes || int(n) > len(rest)-frameHeaderLen {
		return recordView{}, 0, fmt.Errorf("%w: %d-byte payload overruns the table", errCorruptRecord, n)
	}
	frame := rest[:frameHeaderLen+int(n)]
	payload, err := checkFrame(frame)
	if err != nil {
		return recordView{}, 0, err
	}
	rv, err := parsePayload(payload)
	return rv, len(frame), err
}

// read returns the version of an index entry, copying its value out of the
// mapping.
func (t *sstable) read(ent tableEntry) (kvstore.Version, error) {
	rv, _, err := t.frameAt(ent.off)
	if err != nil {
		return kvstore.Version{}, fmt.Errorf("storage: sstable read at %d: %w", ent.off, err)
	}
	return kvstore.Version{
		Key:       ent.key,
		Seq:       rv.seq,
		Tombstone: rv.tombstone,
		WrittenAt: rv.writtenAt,
		Value:     string(rv.value),
	}, nil
}

func (t *sstable) close() error { return unmapTable(t.data) }

// mergeCursor walks one table's frames in file (key) order.
type mergeCursor struct {
	t   *sstable
	off int        // current frame's offset; len(t.data) once done
	n   int        // current frame's length
	rv  recordView // current frame, aliasing the mapping
}

func (c *mergeCursor) seek(off int) (err error) {
	if c.off = off; off < len(c.t.data) {
		c.rv, c.n, err = c.t.frameAt(off)
	}
	return err
}

func (c *mergeCursor) done() bool { return c.off >= len(c.t.data) }

// mergeTables writes the highest-seq frame of every key in tables to w in
// key order, copying each winning frame byte for byte. Every table is
// key-sorted with distinct keys (openSSTable checks), so a k-way merge
// needs no map and no sort.
// Tombstones are kept forever: dropping one while any replica still holds
// an older live version would let anti-entropy resurrect the delete.
func mergeTables(w io.Writer, tables []*sstable) error {
	curs := make([]mergeCursor, len(tables))
	for i, t := range tables {
		curs[i].t = t
		if err := curs[i].seek(0); err != nil {
			return err
		}
	}
	for {
		win := -1
		for i := range curs {
			c := &curs[i]
			if c.done() {
				continue
			}
			if win < 0 {
				win = i
				continue
			}
			cmp := bytes.Compare(c.rv.key, curs[win].rv.key)
			if cmp < 0 || cmp == 0 && c.rv.seq > curs[win].rv.seq {
				win = i
			}
		}
		if win < 0 {
			return nil
		}
		wc := &curs[win]
		if _, err := w.Write(wc.t.data[wc.off : wc.off+wc.n]); err != nil {
			return err
		}
		key := wc.rv.key
		for i := range curs {
			if c := &curs[i]; !c.done() && bytes.Equal(c.rv.key, key) {
				if err := c.seek(c.off + c.n); err != nil {
					return err
				}
			}
		}
	}
}
