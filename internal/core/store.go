package core

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// store holds the named byte streams the generation engine writes and
// reads back: sample shards, read front to back, and spill runs, one per
// merge pass. A run holds P partitions (or span buckets) as blocks of
// whole records, each partition's blocks listed by offset and length, and
// is read block by block at random offsets (see spillRun). Every stream
// is headerless fixed-size records that only the engine itself reads,
// written once, front to back. Names are file paths. dirStore maps them
// onto the file system; memStore keeps them in memory, which is how
// Generate runs the same engine without touching disk. Both backends hold
// identical bytes for identical writes and serve the same reads.
type store interface {
	// create starts a new, empty stream, replacing any of the same name.
	create(name string) (io.WriteCloser, error)
	// open reads a finished stream at random offsets.
	open(name string) (streamReader, error)
	// remove drops one stream and frees what it held.
	remove(name string)
	// mkdirAll prepares dir to hold streams; removeAll drops dir and
	// every stream under it.
	mkdirAll(dir string) error
	removeAll(dir string) error
}

// streamReader reads a stream at random offsets. As for io.ReaderAt, a
// short read returns a non-nil error (io.EOF past the end); a full read
// that ends at the end of the stream may return nil or io.EOF.
type streamReader interface {
	io.ReaderAt
	io.Closer
}

// storeBufSize is the spill block size: the most bytes one partition of a
// spill run buffers before appending them to the run's stream (see
// spillRun).
const storeBufSize = 1 << 15

// dirStore is the file-system backend. Its writers are unbuffered: the
// engine only writes whole blocks or shard chunks.
type dirStore struct{}

func (dirStore) create(name string) (io.WriteCloser, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, fmt.Errorf("core: create %s: %w", filepath.Base(name), err)
	}
	return f, nil
}

func (dirStore) open(name string) (streamReader, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("core: open %s: %w", filepath.Base(name), err)
	}
	return f, nil
}

func (dirStore) remove(name string)         { os.Remove(name) }
func (dirStore) mkdirAll(dir string) error  { return os.MkdirAll(dir, 0o755) }
func (dirStore) removeAll(dir string) error { return os.RemoveAll(dir) }

// memStore is the in-memory backend. A stream is a list of chunks that
// grow geometrically up to memChunkMax bytes, so appends never copy what
// is already written and small streams stay small.
type memStore struct {
	mu    sync.Mutex
	files map[string]*memFile
}

const (
	memChunkMin = 1 << 12
	memChunkMax = 1 << 16
)

func newMemStore() *memStore { return &memStore{files: make(map[string]*memFile)} }

// memFile is one in-memory stream. Chunk i holds memChunkMin<<i bytes
// until that reaches memChunkMax, and every chunk but the last is full.
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

func (s *memStore) open(name string) (streamReader, error) {
	s.mu.Lock()
	f, ok := s.files[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: open %s: %w", filepath.Base(name), fs.ErrNotExist)
	}
	return f, nil
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

// ReadAt copies the stream's bytes from off on into p, chunk by chunk.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: read at negative offset %d", off)
	}
	i, at := memChunkAt(off)
	n := 0
	for n < len(p) && i < len(f.chunks) && at <= len(f.chunks[i]) {
		k := copy(p[n:], f.chunks[i][at:])
		n += k
		i, at = i+1, 0
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// memChunkAt returns the memFile chunk holding stream byte off and off's
// position within it.
func memChunkAt(off int64) (int, int) {
	i := 0
	for size := int64(memChunkMin); size < memChunkMax; size *= 2 {
		if off < size {
			return i, int(off)
		}
		off -= size
		i++
	}
	return i + int(off/memChunkMax), int(off % memChunkMax)
}

func (f *memFile) Close() error { return nil }
