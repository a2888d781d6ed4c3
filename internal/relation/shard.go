package relation

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary shard format for full-outer-join sample streams. A shard file is
// a fixed header followed by row-major little-endian int32 model codes:
//
//	offset  0: magic "SAMSHRD1" (8 bytes)
//	offset  8: uint32 columns per row
//	offset 12: uint32 shard index
//	offset 16: int64 generation seed (the run seed, pre-split)
//	offset 24: int64 row count, or -1 while streaming / when the sink
//	           cannot seek back to patch it
//	offset 32: rows…
//
// The format is the generation pipeline's spill and interchange unit: the
// sharded sampler streams rows in as they are drawn, and the external
// group-and-merge passes stream them back out without ever holding a full
// shard resident. Readers never need the header row count — they stream to
// EOF — so the format works over pipes as well as files.

// shardMagic identifies shard files; the trailing digit is the format
// version.
const shardMagic = "SAMSHRD1"

// ShardHeaderSize is the fixed byte length of a shard file header.
const ShardHeaderSize = 32

// ShardFileName returns the canonical file name of a shard.
func ShardFileName(shard int) string {
	return fmt.Sprintf("shard-%05d.bin", shard)
}

// ShardWriter streams sample rows into the binary shard format.
type ShardWriter struct {
	w     io.Writer
	ncols int
	rows  int64
	buf   []byte
}

// NewShardWriter writes the shard header and returns a writer for the row
// stream. The header's row count is left unknown (-1); callers that can
// write back into the stream patch it when done (see PatchRows).
func NewShardWriter(w io.Writer, ncols, shard int, seed int64) (*ShardWriter, error) {
	if ncols <= 0 {
		return nil, fmt.Errorf("relation: shard writer needs positive columns, got %d", ncols)
	}
	if shard < 0 {
		return nil, fmt.Errorf("relation: negative shard index %d", shard)
	}
	h := make([]byte, ShardHeaderSize)
	copy(h, shardMagic)
	binary.LittleEndian.PutUint32(h[8:], uint32(ncols))
	binary.LittleEndian.PutUint32(h[12:], uint32(shard))
	binary.LittleEndian.PutUint64(h[16:], uint64(seed))
	binary.LittleEndian.PutUint64(h[24:], ^uint64(0)) // rows unknown
	if _, err := w.Write(h); err != nil {
		return nil, fmt.Errorf("relation: write shard header: %w", err)
	}
	return &ShardWriter{w: w, ncols: ncols}, nil
}

// NCols returns the columns per row.
func (s *ShardWriter) NCols() int { return s.ncols }

// Rows returns the number of rows written so far.
func (s *ShardWriter) Rows() int64 { return s.rows }

// WriteRows appends len(flat)/ncols rows (flat must be row-major and a
// whole number of rows).
func (s *ShardWriter) WriteRows(flat []int32) error {
	if len(flat)%s.ncols != 0 {
		return fmt.Errorf("relation: shard write of %d codes is not a multiple of %d columns", len(flat), s.ncols)
	}
	need := len(flat) * 4
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	b := s.buf[:need]
	for i, v := range flat {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
	}
	if _, err := s.w.Write(b); err != nil {
		return fmt.Errorf("relation: write shard rows: %w", err)
	}
	s.rows += int64(len(flat) / s.ncols)
	return nil
}

// PatchRows writes the number of rows written so far into the header's
// row count, for sinks that can write back into the stream (a file, or
// the core package's shard stores). Flush any buffering between s and w
// first.
func (s *ShardWriter) PatchRows(w io.WriterAt) error {
	var hb [8]byte
	binary.LittleEndian.PutUint64(hb[:], uint64(s.rows))
	if _, err := w.WriteAt(hb[:], 24); err != nil {
		return fmt.Errorf("relation: patch shard row count: %w", err)
	}
	return nil
}

// ShardReader streams rows back out of the binary shard format.
type ShardReader struct {
	r     io.Reader
	ncols int
	shard int
	seed  int64
	rows  int64 // -1 when the header was written by a non-seekable sink
	read  int64 // rows returned so far
	buf   []byte
}

// NewShardReader parses and validates the header.
func NewShardReader(r io.Reader) (*ShardReader, error) {
	h := make([]byte, ShardHeaderSize)
	if _, err := io.ReadFull(r, h); err != nil {
		return nil, fmt.Errorf("relation: read shard header: %w", err)
	}
	if string(h[:8]) != shardMagic {
		return nil, fmt.Errorf("relation: bad shard magic %q", h[:8])
	}
	ncols := int(binary.LittleEndian.Uint32(h[8:]))
	if ncols <= 0 {
		return nil, fmt.Errorf("relation: shard header declares %d columns", ncols)
	}
	rows := int64(binary.LittleEndian.Uint64(h[24:]))
	if rows < -1 {
		return nil, fmt.Errorf("relation: shard header declares %d rows", rows)
	}
	return &ShardReader{
		r:     r,
		ncols: ncols,
		shard: int(binary.LittleEndian.Uint32(h[12:])),
		seed:  int64(binary.LittleEndian.Uint64(h[16:])),
		rows:  rows,
	}, nil
}

// NCols returns the columns per row.
func (s *ShardReader) NCols() int { return s.ncols }

// Rows returns the header row count, or -1 when it was not patched in.
func (s *ShardReader) Rows() int64 { return s.rows }

// ReadRows fills dst (row-major, capacity len(dst)/ncols rows) with the
// next rows of the stream and returns how many it read. It returns 0,
// io.EOF when the stream is exhausted, and an error when the stream ends
// mid-row or, if the header records a row count, holds more or fewer rows
// than it.
func (s *ShardReader) ReadRows(dst []int32) (int, error) {
	rows := len(dst) / s.ncols
	if rows == 0 {
		return 0, fmt.Errorf("relation: shard read buffer holds no full row (%d codes for %d columns)", len(dst), s.ncols)
	}
	need := rows * s.ncols * 4
	if cap(s.buf) < need {
		s.buf = make([]byte, need)
	}
	b := s.buf[:need]
	n, err := io.ReadFull(s.r, b)
	switch err {
	case nil:
	case io.ErrUnexpectedEOF:
		rowBytes := s.ncols * 4
		if n%rowBytes != 0 {
			return 0, fmt.Errorf("relation: shard truncated mid-row (%d trailing bytes)", n%rowBytes)
		}
		rows = n / rowBytes
		if rows == 0 {
			return 0, s.eof()
		}
		b = b[:n]
	case io.EOF:
		return 0, s.eof()
	default:
		return 0, fmt.Errorf("relation: read shard rows: %w", err)
	}
	s.read += int64(rows)
	if s.rows >= 0 && s.read > s.rows {
		return 0, fmt.Errorf("relation: shard holds more than the %d rows its header records", s.rows)
	}
	for i := 0; i < len(b)/4; i++ {
		dst[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return rows, nil
}

// eof reports the end of the row stream: io.EOF, or an error when the
// header records more rows than the stream held.
func (s *ShardReader) eof() error {
	if s.rows >= 0 && s.read != s.rows {
		return fmt.Errorf("relation: shard ends after %d of the %d rows its header records", s.read, s.rows)
	}
	return io.EOF
}
