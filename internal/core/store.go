package core

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// store holds the named byte streams the generation engine writes and
// reads back: sample shards, spill partitions and span buckets. Each is a
// headerless run of fixed-size records that only the engine itself
// reads. Names are file paths. dirStore maps them onto the file system;
// memStore keeps them in memory, which is how Generate runs the same
// engine without touching disk. Both backends hold identical bytes for
// identical writes.
type store interface {
	// create starts a new, empty stream, replacing any of the same name.
	create(name string) (io.WriteCloser, error)
	// open reads a stream from its start.
	open(name string) (io.ReadCloser, error)
	// remove drops one stream and frees what it held.
	remove(name string)
	// mkdirAll prepares dir to hold streams; removeAll drops dir and
	// every stream under it.
	mkdirAll(dir string) error
	removeAll(dir string) error
}

// storeBufSize is the dirStore read and write buffer per open stream.
const storeBufSize = 1 << 15

// dirStore is the file-system backend.
type dirStore struct{}

type fileWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func (dirStore) create(name string) (io.WriteCloser, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, fmt.Errorf("core: create %s: %w", filepath.Base(name), err)
	}
	return &fileWriter{f: f, bw: bufio.NewWriterSize(f, storeBufSize)}, nil
}

func (w *fileWriter) Write(p []byte) (int, error) { return w.bw.Write(p) }

func (w *fileWriter) Close() error {
	err := w.bw.Flush()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

type fileReader struct {
	*bufio.Reader
	f *os.File
}

func (dirStore) open(name string) (io.ReadCloser, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", filepath.Base(name), err)
	}
	return &fileReader{Reader: bufio.NewReaderSize(f, storeBufSize), f: f}, nil
}

func (r *fileReader) Close() error { return r.f.Close() }

func (dirStore) remove(name string)         { os.Remove(name) }
func (dirStore) mkdirAll(dir string) error  { return os.MkdirAll(dir, 0o755) }
func (dirStore) removeAll(dir string) error { return os.RemoveAll(dir) }

// memStore is the in-memory backend. A stream is a list of chunks that
// grow geometrically up to memChunkMax bytes, so appends never copy what
// is already written and small spill partitions stay small.
type memStore struct {
	mu    sync.Mutex
	files map[string]*memFile
}

const (
	memChunkMin = 1 << 12
	memChunkMax = 1 << 16
)

func newMemStore() *memStore { return &memStore{files: make(map[string]*memFile)} }

// memFile is one in-memory stream. Every chunk but the last is full.
type memFile struct {
	chunks [][]byte
}

func (s *memStore) create(name string) (io.WriteCloser, error) {
	f := &memFile{}
	s.mu.Lock()
	s.files[name] = f
	s.mu.Unlock()
	return f, nil
}

func (s *memStore) open(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	f, ok := s.files[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: open %s: %w", filepath.Base(name), fs.ErrNotExist)
	}
	return &memReader{chunks: f.chunks}, nil
}

func (s *memStore) remove(name string) {
	s.mu.Lock()
	delete(s.files, name)
	s.mu.Unlock()
}

func (s *memStore) mkdirAll(string) error { return nil }

func (s *memStore) removeAll(dir string) error {
	prefix := dir + string(filepath.Separator)
	s.mu.Lock()
	defer s.mu.Unlock()
	for name := range s.files {
		if name == dir || strings.HasPrefix(name, prefix) {
			delete(s.files, name)
		}
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		last := len(f.chunks) - 1
		if last < 0 || len(f.chunks[last]) == cap(f.chunks[last]) {
			size := memChunkMin
			if last >= 0 {
				size = min(2*cap(f.chunks[last]), memChunkMax)
			}
			f.chunks = append(f.chunks, make([]byte, 0, size))
			last++
		}
		c := f.chunks[last]
		k := copy(c[len(c):cap(c)], p)
		f.chunks[last] = c[:len(c)+k]
		p = p[k:]
	}
	return n, nil
}

func (f *memFile) Close() error { return nil }

// memReader reads a memFile's chunks in order.
type memReader struct {
	chunks [][]byte
	i, off int // next byte: chunks[i][off]
}

func (r *memReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) && r.i < len(r.chunks) {
		k := copy(p[n:], r.chunks[r.i][r.off:])
		n += k
		r.off += k
		if r.off == len(r.chunks[r.i]) {
			r.i++
			r.off = 0
		}
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

func (r *memReader) Close() error { return nil }
