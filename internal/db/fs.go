package db

import (
	"io"
	"math"
	"os"
	"path/filepath"
)

// FS is the slice of the filesystem the storage layer touches: journal
// appends, checkpoint writes, the rename that publishes a checkpoint
// and the directory fsync that makes the rename durable. Production
// code uses OSFS; the diskfault package substitutes a deterministic
// fault-injecting implementation so every durability seam — group-
// commit flush, checkpoint write, rename, dir-fsync, Compact, spool
// WALs — can be killed and corrupted reproducibly from a seed.
type FS interface {
	// OpenFile opens a file with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Rename atomically replaces newpath with oldpath. Like the real
	// syscall it is durable only after SyncDir on the parent.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// Stat reports file metadata.
	Stat(name string) (os.FileInfo, error)
	// ReadDir lists a directory (for stale-tmp sweeps and fsck walks).
	ReadDir(name string) ([]os.DirEntry, error)
	// SyncDir fsyncs a directory, making renames/removes in it durable.
	SyncDir(dir string) error
}

// File is the handle surface the storage layer needs from an open file.
// *os.File satisfies it.
type File interface {
	io.Reader
	io.Writer
	io.ReaderAt
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// osFS is the real filesystem.
type osFS struct{}

// OSFS returns the production filesystem implementation.
func OSFS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// syncParentDir fsyncs path's directory through fsys.
func syncParentDir(fsys FS, path string) error {
	return fsys.SyncDir(filepath.Dir(path))
}

// readWhole reads f to EOF into a buffer sized from Stat, as
// os.ReadFile does: io.ReadAll's doubling would copy a multi-megabyte
// checkpoint over and over. The size is only a hint; a file that grows
// meanwhile is still read whole.
func readWhole(f File) ([]byte, error) {
	size := 512
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 && fi.Size() < math.MaxInt32 {
		size = int(fi.Size()) + 1 // +1 so the final Read sees EOF without growing
	}
	b := make([]byte, 0, size)
	for {
		n, err := f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				return b, nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}
