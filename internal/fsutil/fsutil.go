// Package fsutil holds the durable-file-commit helpers shared by the
// stores' manifest and metadata writers (MRBG-Store meta and index log,
// result-store manifests, the engines' job meta and refresh markers).
package fsutil

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic durably commits data to path: write to a temp file in
// the same directory, fsync it, rename it into place, and fsync the
// directory so the rename survives a crash. Readers never observe a
// partially written file.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// RenameCommit atomically commits an already-durable temp file (or
// directory tree) to path: rename into place, then fsync the parent
// directory so the rename survives a crash. It is the streamed-writer
// counterpart to WriteFileAtomic — the caller has already written and
// fsynced tmp (typically through a bufio.Writer too large to buffer in
// memory) and only the commit itself remains.
func RenameCommit(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making a completed rename inside it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// AppendSync durably appends data to the existing file at path: one
// write at offset off — the caller's record of the file's committed
// length — then fsync. It is the commit of an append-only log whose
// records frame and checksum themselves: a crash or a short write
// leaves at most a torn record beyond off, which the reader drops and
// the next append (at the same off) overwrites, so the committed prefix
// stays readable. The file must already exist durably (create it with
// WriteFileAtomic); AppendSync never creates one, because a new
// directory entry would need the directory fsynced too.
func AppendSync(path string, off int64, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	n, err := f.WriteAt(data, off)
	if err == nil && n != len(data) {
		err = io.ErrShortWrite
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
