// Package checkpoint implements the versioned, self-describing binary
// container used to snapshot and warm-restart EdgeBOL agent state across
// controller failovers and migrations (ROADMAP item 5).
//
// A checkpoint is a header followed by a list of tagged sections:
//
//	header:  magic [8]byte | version uint16 | flags uint16 | count uint32
//	section: tag [4]byte | length uint64 | payload | crc uint32
//
// All integers are little-endian; the CRC is IEEE CRC-32 over tag plus
// payload, so both a flipped payload bit and a mislabeled section fail
// verification. Tags follow the PNG convention: a tag whose first byte is
// an ASCII uppercase letter is critical — a reader that does not recognize
// it must reject the checkpoint — while a lowercase first byte marks an
// ancillary section that unknown readers skip. That is the format's
// forward-compatibility rule: additive state travels in new ancillary
// sections under the same version, and only layout changes to existing
// sections bump Version.
//
// The package knows nothing about agents or GPs; it only frames, sums, and
// versions byte sections. Layer-specific payload layouts live with their
// owners (internal/core, internal/gp) on top of Encoder/Decoder.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies an EdgeBOL checkpoint stream.
const Magic = "EBOLCKPT"

// Version is the container format version this package writes. Version 2
// extended the core META and GP section layouts with the GP engine
// identity and the sparse-engine state (inducing set, moment blocks, dual
// factors). Version 3 widened the core META layout to the split-inference
// control dimension (five-component safe seeds, per-dimension grid level
// counts) and added the acquisition mode. The reader accepts this version
// only: earlier checkpoints hold GP inputs without the split dimension,
// which no agent of this code can restore.
const Version = 3

// Container-level decode errors. Decode wraps them with positional detail;
// match with errors.Is.
var (
	// ErrBadMagic is returned when the stream does not start with Magic.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrTruncated is returned when the stream ends inside a header,
	// section, or field.
	ErrTruncated = errors.New("checkpoint: truncated input")
	// ErrChecksum is returned when a section's CRC does not match its
	// contents.
	ErrChecksum = errors.New("checkpoint: section checksum mismatch")
	// ErrMalformed is returned for structural violations that are neither
	// truncation nor checksum failures (bad tag, absurd counts).
	ErrMalformed = errors.New("checkpoint: malformed input")
)

// VersionError is returned when the container version is not supported by
// this reader.
type VersionError struct {
	Found uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported format version %d (reader supports %d)", e.Found, Version)
}

// Section is one tagged payload of a checkpoint.
type Section struct {
	// Tag is exactly 4 bytes of printable ASCII. An uppercase first byte
	// marks the section critical (see the package comment).
	Tag string
	// Data is the section payload.
	Data []byte
}

// Critical reports whether the section must be understood by a reader.
func (s Section) Critical() bool {
	return len(s.Tag) > 0 && s.Tag[0] >= 'A' && s.Tag[0] <= 'Z'
}

func validTag(tag string) bool {
	if len(tag) != 4 {
		return false
	}
	for i := 0; i < len(tag); i++ {
		if tag[i] < '!' || tag[i] > '~' {
			return false
		}
	}
	return true
}

// Archive is a fully decoded checkpoint: the header version plus every
// section in stream order.
type Archive struct {
	Version  uint16
	Sections []Section
}

// Find returns the first section with the given tag, or nil.
func (a *Archive) Find(tag string) *Section {
	for i := range a.Sections {
		if a.Sections[i].Tag == tag {
			return &a.Sections[i]
		}
	}
	return nil
}

const headerLen = 8 + 2 + 2 + 4
const sectionHeaderLen = 4 + 8
const sectionTrailerLen = 4

// Encode writes a checkpoint containing the given sections at the current
// format version.
func Encode(w io.Writer, sections []Section) error {
	var hdr [headerLen]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint16(hdr[8:10], Version)
	binary.LittleEndian.PutUint16(hdr[10:12], 0)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(sections)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	for _, s := range sections {
		if !validTag(s.Tag) {
			return fmt.Errorf("%w: invalid section tag %q", ErrMalformed, s.Tag)
		}
		var sh [sectionHeaderLen]byte
		copy(sh[:4], s.Tag)
		binary.LittleEndian.PutUint64(sh[4:12], uint64(len(s.Data)))
		if _, err := w.Write(sh[:]); err != nil {
			return fmt.Errorf("checkpoint: write section %s header: %w", s.Tag, err)
		}
		if _, err := w.Write(s.Data); err != nil {
			return fmt.Errorf("checkpoint: write section %s payload: %w", s.Tag, err)
		}
		crc := crc32.ChecksumIEEE(sh[:4])
		crc = crc32.Update(crc, crc32.IEEETable, s.Data)
		var tr [sectionTrailerLen]byte
		binary.LittleEndian.PutUint32(tr[:], crc)
		if _, err := w.Write(tr[:]); err != nil {
			return fmt.Errorf("checkpoint: write section %s checksum: %w", s.Tag, err)
		}
	}
	return nil
}

// Decode reads a whole checkpoint stream and verifies every section.
func Decode(r io.Reader) (*Archive, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return DecodeBytes(data)
}

// DecodeBytes is Decode over an in-memory stream. Every structural check is
// bounds-based — a malformed length can never trigger an allocation larger
// than the input itself, so hostile inputs fail fast instead of exhausting
// memory.
func DecodeBytes(data []byte) (*Archive, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d-byte input below the %d-byte header", ErrTruncated, len(data), headerLen)
	}
	if string(data[:8]) != Magic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint16(data[8:10])
	if version != Version {
		return nil, &VersionError{Found: version}
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	rest := data[headerLen:]
	if uint64(count) > uint64(len(rest))/(sectionHeaderLen+sectionTrailerLen) {
		return nil, fmt.Errorf("%w: %d sections cannot fit in %d remaining bytes", ErrMalformed, count, len(rest))
	}
	arch := &Archive{Version: version, Sections: make([]Section, 0, count)}
	for i := uint32(0); i < count; i++ {
		if len(rest) < sectionHeaderLen {
			return nil, fmt.Errorf("%w: section %d header", ErrTruncated, i)
		}
		tag := string(rest[:4])
		if !validTag(tag) {
			return nil, fmt.Errorf("%w: section %d tag %q", ErrMalformed, i, tag)
		}
		length := binary.LittleEndian.Uint64(rest[4:12])
		rest = rest[sectionHeaderLen:]
		if length > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: section %s declares %d payload bytes, %d remain", ErrTruncated, tag, length, len(rest))
		}
		payload := rest[:length]
		rest = rest[length:]
		if len(rest) < sectionTrailerLen {
			return nil, fmt.Errorf("%w: section %s checksum", ErrTruncated, tag)
		}
		want := binary.LittleEndian.Uint32(rest[:4])
		rest = rest[sectionTrailerLen:]
		crc := crc32.ChecksumIEEE([]byte(tag))
		crc = crc32.Update(crc, crc32.IEEETable, payload)
		if crc != want {
			return nil, fmt.Errorf("%w: section %s", ErrChecksum, tag)
		}
		arch.Sections = append(arch.Sections, Section{Tag: tag, Data: append([]byte(nil), payload...)})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the last section", ErrMalformed, len(rest))
	}
	return arch, nil
}

// Encoder builds a section payload from fixed-width little-endian fields.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// F64 appends an IEEE-754 double by its bit pattern, so every value —
// including NaNs and signed zeros — round-trips bitwise.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// String appends a uint32 length prefix and the raw bytes.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// F64s appends a uint64 count prefix and every element as F64.
func (e *Encoder) F64s(vs []float64) {
	e.U64(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Decoder reads fields written by Encoder. It is sticky: after the first
// failure every read returns a zero value and Err reports the failure, so
// decode paths read a whole layout and check once. All reads are
// bounds-checked; a Decoder never panics on malformed input.
type Decoder struct {
	b    []byte
	off  int
	fail error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decode failure, or nil.
func (d *Decoder) Err() error { return d.fail }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Done returns Err, upgraded to a trailing-garbage error when the payload
// was not fully consumed — a length-compatible but overlong section is as
// malformed as a short one.
func (d *Decoder) Done() error {
	if d.fail != nil {
		return d.fail
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d unread payload bytes", ErrMalformed, d.Remaining())
	}
	return nil
}

func (d *Decoder) take(n int) []byte {
	if d.fail != nil {
		return nil
	}
	if n < 0 || d.Remaining() < n {
		d.fail = fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.b))
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte, requiring 0 or 1.
func (d *Decoder) Bool() bool {
	v := d.U8()
	if d.fail == nil && v > 1 {
		d.fail = fmt.Errorf("%w: boolean byte %d", ErrMalformed, v)
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// F64 reads an IEEE-754 double by bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// String reads a uint32-length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}

// F64s reads a uint64-count-prefixed float slice. The count is validated
// against the remaining payload before any allocation.
func (d *Decoder) F64s() []float64 {
	n := d.U64()
	if d.fail != nil {
		return nil
	}
	if n > uint64(d.Remaining())/8 {
		d.fail = fmt.Errorf("%w: %d floats declared, %d bytes remain", ErrTruncated, n, d.Remaining())
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.F64()
	}
	return out
}
