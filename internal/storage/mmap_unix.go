//go:build unix

package storage

import (
	"fmt"
	"os"
	"syscall"
)

// mapTable maps the table file at path read-only. The mapping outlives the
// file descriptor, which is closed before mapTable returns. An empty file
// maps to nil.
func mapTable(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size == 0 {
		return nil, nil
	}
	if int64(int(size)) != size {
		return nil, fmt.Errorf("%s: %d bytes do not fit the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	return data, nil
}

// unmapTable releases a mapping made by mapTable.
func unmapTable(data []byte) error {
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
