package closeleak

import (
	"io"
	"os"
	"path/filepath"
)

// The canonical shape: defer right after the error check.
func readHeader(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 32)
	if _, err := f.Read(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// Branch-balanced manual closes cover every exit; io.Copy borrows the
// handle without taking ownership.
func copyOut(dst io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// A returned handle is the caller's to close.
func openShard(dir string) (*os.File, error) {
	f, err := os.Open(filepath.Join(dir, "shard-000"))
	if err != nil {
		return nil, err
	}
	return f, nil
}

// A stored handle belongs to the struct's lifecycle now.
type sink struct {
	f *os.File
}

func (s *sink) open(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	s.f = f
	return nil
}

// Passing the handle to an unknown function transfers ownership.
func handOff(path string, register func(*os.File)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	register(f)
	return nil
}

// Captured by a cleanup closure: ownership moves into it.
func withTemp(dir string, use func(*os.File) error) error {
	f, err := os.CreateTemp(dir, "sam-*")
	if err != nil {
		return err
	}
	defer func() {
		f.Close()
		os.Remove(f.Name())
	}()
	return use(f)
}
