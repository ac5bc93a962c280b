//go:build !unix

package storage

import "os"

// mapTable reads the table file into memory on platforms without mmap; the
// table code runs over the bytes the same way.
func mapTable(path string) ([]byte, error) { return os.ReadFile(path) }

// unmapTable has nothing to release: the garbage collector frees the bytes.
func unmapTable([]byte) error { return nil }
