package storage

// Immutable sorted string tables. An SSTable is a key-sorted sequence of
// CRC-framed records, written once (tmp file + fsync + atomic rename) and
// never modified. Opening a table scans it sequentially and builds an
// in-memory index of every key's metadata (seq, tombstone, frame offset)
// so Apply's newness check and Merkle summaries never touch disk; only Get
// of a table-resident value issues a pread.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"pbs/internal/kvstore"
)

// tableEntry is one key's index record inside an SSTable.
type tableEntry struct {
	seq       uint64
	tombstone bool
	writtenAt float64
	off       int64 // frame offset within the file
	length    int   // full frame length (header + payload)
}

type sstable struct {
	path  string
	gen   uint64
	f     *os.File
	index map[string]tableEntry
}

// writeSSTable writes versions (any order; sorted here) to path via a tmp
// file, fsyncs, and renames into place — a torn flush leaves only a tmp
// file that recovery deletes.
func writeSSTable(path string, versions []kvstore.Version) error {
	sort.Slice(versions, func(i, j int) bool { return versions[i].Key < versions[j].Key })
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: write sstable: %w", err)
	}
	bw := bufio.NewWriter(f)
	var buf []byte
	for _, v := range versions {
		buf = encodePayload(buf[:0], v, 0, 0)
		if _, err := bw.Write(appendFrame(nil, buf)); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("storage: write sstable: %w", err)
		}
	}
	if err := bw.Flush(); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write sstable: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write sstable: %w", err)
	}
	return nil
}

// openSSTable opens and indexes a table. Unlike WAL replay, corruption here
// is fatal: tables are fsynced before the rename that makes them visible,
// so a bad frame means real damage, not a torn tail.
func openSSTable(path string, gen uint64) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open sstable: %w", err)
	}
	t := &sstable{path: path, gen: gen, f: f, index: make(map[string]tableEntry)}
	br := bufio.NewReader(f)
	var off int64
	for {
		v, n, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: sstable %s at offset %d: %w", path, off, err)
		}
		t.index[v.Key] = tableEntry{
			seq:       v.Seq,
			tombstone: v.Tombstone,
			writtenAt: v.WrittenAt,
			off:       off,
			length:    n,
		}
		off += int64(n)
	}
	return t, nil
}

// read fetches and decodes the full version for an index entry via pread.
func (t *sstable) read(key string, ent tableEntry) (kvstore.Version, error) {
	frame := make([]byte, ent.length)
	if _, err := t.f.ReadAt(frame, ent.off); err != nil {
		return kvstore.Version{}, fmt.Errorf("storage: sstable read %s: %w", key, err)
	}
	rec, err := decodeFrame(frame)
	if err != nil {
		return kvstore.Version{}, fmt.Errorf("storage: sstable read %s: %w", key, err)
	}
	return rec.Version, nil
}

// iterate streams every record in file order (key-sorted).
func (t *sstable) iterate(f func(kvstore.Version) error) error {
	br := bufio.NewReader(io.NewSectionReader(t.f, 0, 1<<62))
	for {
		rec, _, err := readRecord(br)
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := f(rec.Version); err != nil {
			return err
		}
	}
}

func (t *sstable) close() error { return t.f.Close() }
