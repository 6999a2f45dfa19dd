package fsutil

import (
	"os"
	"path/filepath"
	"testing"
)

func read(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func entries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest")
	for _, want := range []string{"first version, the longer one", "second"} {
		if err := WriteFileAtomic(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		if got := read(t, path); got != want {
			t.Fatalf("read %q, want %q", got, want)
		}
	}
	if names := entries(t, dir); len(names) != 1 {
		t.Fatalf("directory holds %v after two commits, want only the file", names)
	}
}

// A commit that cannot complete leaves the previous contents readable
// and no temp file behind.
func TestWriteFileAtomicFailureKeepsPreviousState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest")
	if err := WriteFileAtomic(path, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	// A torn write of an earlier attempt: the next commit overwrites it.
	if err := os.WriteFile(path+".tmp", []byte("half a wri"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "committed" {
		t.Fatalf("a stray temp file changed the committed contents to %q", got)
	}
	if err := WriteFileAtomic(path, []byte("next")); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "next" {
		t.Fatalf("read %q, want %q", got, "next")
	}

	// The rename cannot replace a non-empty directory.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(blocked, []byte("x")); err == nil {
		t.Fatal("WriteFileAtomic over a non-empty directory succeeded")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed commit left its temp file behind (stat err %v)", err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "manifest"), []byte("x")); err == nil {
		t.Fatal("WriteFileAtomic into a missing directory succeeded")
	}
}

func TestRenameCommit(t *testing.T) {
	dir := t.TempDir()
	path, tmp := filepath.Join(dir, "segment"), filepath.Join(dir, "segment.partial")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RenameCommit(tmp, path); err == nil {
		t.Fatal("RenameCommit of a missing temp file succeeded")
	}
	if got := read(t, path); got != "old" {
		t.Fatalf("failed commit changed the file to %q", got)
	}
	if err := os.WriteFile(tmp, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := RenameCommit(tmp, path); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "new" {
		t.Fatalf("read %q, want %q", got, "new")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived its commit (stat err %v)", err)
	}
}

// AppendSync writes at the offset its caller committed up to: a torn
// record beyond that offset never disturbs the committed prefix, and
// the next append overwrites it.
func TestAppendSync(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log")
	if err := AppendSync(path, 0, []byte("rec1")); err == nil {
		t.Fatal("AppendSync created a file; its directory entry would not be durable")
	}
	if names := entries(t, dir); len(names) != 0 {
		t.Fatalf("failed append left %v behind", names)
	}
	if err := WriteFileAtomic(path, []byte("rec1")); err != nil {
		t.Fatal(err)
	}
	if err := AppendSync(path, 4, []byte("rec2")); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "rec1rec2" {
		t.Fatalf("read %q after append", got)
	}
	// A short write: half of a record lands beyond the committed 8
	// bytes, and its writer reports failure, so the offset stays at 8.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("re")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if got := read(t, path); got[:8] != "rec1rec2" {
		t.Fatalf("torn tail disturbed the committed prefix: %q", got)
	}
	if err := AppendSync(path, 8, []byte("rec3")); err != nil {
		t.Fatal(err)
	}
	if got := read(t, path); got != "rec1rec2rec3" {
		t.Fatalf("read %q, want the torn tail overwritten", got)
	}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := AppendSync("/dev/full", 0, []byte("x")); err == nil {
			t.Fatal("AppendSync to a full device reported success")
		}
	}
}
