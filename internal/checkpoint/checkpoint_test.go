package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func sampleSections() []Section {
	return []Section{
		{Tag: "META", Data: []byte{1, 2, 3, 4, 5}},
		{Tag: "GP00", Data: bytes.Repeat([]byte{0xAB}, 100)},
		{Tag: "safe", Data: []byte{}},
	}
}

func encode(t *testing.T, sections []Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, sections); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleSections()
	data := encode(t, want)
	arch, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if arch.Version != Version {
		t.Fatalf("version %d, want %d", arch.Version, Version)
	}
	if len(arch.Sections) != len(want) {
		t.Fatalf("%d sections, want %d", len(arch.Sections), len(want))
	}
	for i, s := range arch.Sections {
		if s.Tag != want[i].Tag || !bytes.Equal(s.Data, want[i].Data) {
			t.Errorf("section %d = %q/%d bytes, want %q/%d bytes", i, s.Tag, len(s.Data), want[i].Tag, len(want[i].Data))
		}
	}
	if got := arch.Find("GP00"); got == nil || len(got.Data) != 100 {
		t.Errorf("Find(GP00) = %v", got)
	}
	if got := arch.Find("none"); got != nil {
		t.Errorf("Find(none) = %v, want nil", got)
	}
}

func TestCriticality(t *testing.T) {
	if !(Section{Tag: "META"}).Critical() {
		t.Error("META should be critical")
	}
	if (Section{Tag: "safe"}).Critical() {
		t.Error("safe should be ancillary")
	}
}

func TestEncodeRejectsBadTags(t *testing.T) {
	for _, tag := range []string{"", "ab", "toolong", "ta g", "t\x00ag"} {
		var buf bytes.Buffer
		if err := Encode(&buf, []Section{{Tag: tag}}); !errors.Is(err, ErrMalformed) {
			t.Errorf("tag %q: err = %v, want ErrMalformed", tag, err)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	data := encode(t, sampleSections())
	data[0] ^= 0xFF
	if _, err := DecodeBytes(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestDecodeVersionBump(t *testing.T) {
	data := encode(t, sampleSections())
	data[8] = 99
	_, err := DecodeBytes(data)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Found != 99 {
		t.Fatalf("err = %v, want VersionError{99}", err)
	}
	if !strings.Contains(ve.Error(), "99") {
		t.Errorf("message %q should name the found version", ve.Error())
	}
}

// TestDecodeAcceptsSupportedVersionRange: the reader accepts the current
// container Version only. Versions 1 and 2 predate the split dimension —
// their GPs hold inputs no current agent can restore — so they return a
// *VersionError, as do versions on the far side of the range.
func TestDecodeAcceptsSupportedVersionRange(t *testing.T) {
	want := sampleSections()
	for v := uint16(0); v <= Version+1; v++ {
		data := encode(t, want)
		data[8] = byte(v) // version is a little-endian u16 at offset 8
		data[9] = byte(v >> 8)
		arch, err := DecodeBytes(data)
		if v != Version {
			var ve *VersionError
			if !errors.As(err, &ve) || ve.Found != v {
				t.Fatalf("version %d: err = %v, want VersionError{%d}", v, err, v)
			}
			continue
		}
		if err != nil {
			t.Fatalf("version %d rejected: %v", v, err)
		}
		if arch.Version != v || len(arch.Sections) != len(want) {
			t.Fatalf("version %d: decoded version %d with %d sections", v, arch.Version, len(arch.Sections))
		}
	}
}

func TestDecodeTruncations(t *testing.T) {
	data := encode(t, sampleSections())
	// Every strict prefix must fail loudly — most as ErrTruncated, but a
	// cut that lands exactly after a section boundary decodes the header
	// count as unsatisfiable (ErrMalformed). None may succeed or panic.
	for cut := 0; cut < len(data); cut++ {
		_, err := DecodeBytes(data[:cut])
		if err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", cut)
		}
	}
}

func TestDecodeBitFlips(t *testing.T) {
	data := encode(t, sampleSections())
	// Flipping any byte after the header must fail (payloads and lengths
	// are covered by CRC or structure); header flips fail via magic,
	// version, or count checks — a flags flip alone is tolerated.
	for i := headerLen; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		if _, err := DecodeBytes(mut); err == nil {
			t.Fatalf("flip at byte %d decoded successfully", i)
		}
	}
}

func TestDecodeChecksumMismatch(t *testing.T) {
	data := encode(t, sampleSections())
	// Flip one payload byte of the first section (header + section header).
	data[headerLen+sectionHeaderLen] ^= 0x80
	if _, err := DecodeBytes(data); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data := encode(t, sampleSections())
	data = append(data, 0xEE)
	if _, err := DecodeBytes(data); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestDecodeAbsurdSectionCount(t *testing.T) {
	data := encode(t, nil)
	data[12] = 0xFF
	data[13] = 0xFF
	if _, err := DecodeBytes(data); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xDEADBEEF)
	e.U64(1 << 60)
	e.F64(math.Copysign(0, -1))
	e.F64(math.Inf(1))
	e.String("matern32")
	e.F64s([]float64{1, 2.5, -3})
	e.F64s(nil)

	d := NewDecoder(e.Bytes())
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if v := d.U32(); v != 0xDEADBEEF {
		t.Errorf("U32 = %x", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Errorf("U64 = %x", v)
	}
	if v := d.F64(); math.Signbit(v) == false || v != 0 {
		t.Errorf("F64 = %v, want -0", v)
	}
	if v := d.F64(); !math.IsInf(v, 1) {
		t.Errorf("F64 = %v, want +Inf", v)
	}
	if v := d.String(); v != "matern32" {
		t.Errorf("String = %q", v)
	}
	if v := d.F64s(); len(v) != 3 || v[0] != 1 || v[1] != 2.5 || v[2] != -3 {
		t.Errorf("F64s = %v", v)
	}
	if v := d.F64s(); len(v) != 0 {
		t.Errorf("empty F64s = %v", v)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestDecoderSticky(t *testing.T) {
	d := NewDecoder([]byte{1})
	_ = d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Every later read must return zero values without panicking.
	if v := d.U8(); v != 0 {
		t.Errorf("post-failure U8 = %d", v)
	}
	if v := d.String(); v != "" {
		t.Errorf("post-failure String = %q", v)
	}
	if v := d.F64s(); v != nil {
		t.Errorf("post-failure F64s = %v", v)
	}
	if err := d.Done(); !errors.Is(err, ErrTruncated) {
		t.Errorf("Done = %v, want ErrTruncated", err)
	}
}

func TestDecoderBadBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	_ = d.Bool()
	if !errors.Is(d.Err(), ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", d.Err())
	}
}

func TestDecoderHostileF64sCount(t *testing.T) {
	var e Encoder
	e.U64(1 << 62) // declares 2^62 floats
	d := NewDecoder(e.Bytes())
	if v := d.F64s(); v != nil {
		t.Fatalf("F64s = %d floats, want nil", len(v))
	}
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", d.Err())
	}
}

func TestDecoderDoneRejectsUnreadBytes(t *testing.T) {
	d := NewDecoder([]byte{1, 2, 3})
	_ = d.U8()
	if err := d.Done(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Done = %v, want ErrMalformed", err)
	}
}
