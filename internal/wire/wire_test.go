package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(0)
	w.Uvarint(300)
	w.Uvarint(math.MaxUint64)
	w.Uint8(7)
	w.Bool(true)
	w.Bool(false)
	w.Int32(-1)
	w.Int32(math.MaxInt32)
	w.Int32(math.MinInt32)
	w.BytesField([]byte("payload"))
	w.BytesField(nil)

	r := NewReader(w.Bytes())
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("uvarint: %d", got)
	}
	if got := r.Uint8(); got != 7 {
		t.Fatalf("uint8: %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip")
	}
	if got := r.Int32(); got != -1 {
		t.Fatalf("int32: %d", got)
	}
	if got := r.Int32(); got != math.MaxInt32 {
		t.Fatalf("int32: %d", got)
	}
	if got := r.Int32(); got != math.MinInt32 {
		t.Fatalf("int32: %d", got)
	}
	if got := r.BytesField(); !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("bytes: %q", got)
	}
	if got := r.BytesField(); len(got) != 0 {
		t.Fatalf("empty bytes: %q", got)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1)
	buf := append(w.Bytes(), 0xFF)
	r := NewReader(buf)
	_ = r.Uvarint()
	if err := r.Finish(); !errors.Is(err, ErrTrailing) {
		t.Fatalf("expected ErrTrailing, got %v", err)
	}
}

func TestTruncatedInput(t *testing.T) {
	r := NewReader(nil)
	_ = r.Uvarint()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("expected ErrTruncated, got %v", r.Err())
	}
	// Sticky: further reads keep the first error.
	_ = r.Uint8()
	_ = r.BytesField()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("error not sticky: %v", r.Err())
	}
}

func TestBytesFieldLengthOverflow(t *testing.T) {
	// A length prefix larger than the remaining buffer must not allocate.
	w := NewWriter(0)
	w.Uvarint(1 << 40)
	r := NewReader(w.Bytes())
	if got := r.BytesField(); got != nil {
		t.Fatalf("expected nil, got %d bytes", len(got))
	}
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("expected ErrOverflow, got %v", r.Err())
	}
}

func TestNonCanonicalBoolRejected(t *testing.T) {
	r := NewReader([]byte{2})
	_ = r.Bool()
	if r.Err() == nil {
		t.Fatal("expected error for bool byte 2")
	}
}

func TestSliceLenLimit(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(MaxSlice + 1)
	r := NewReader(w.Bytes())
	_ = r.SliceLen()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("expected ErrOverflow, got %v", r.Err())
	}
}

// TestSliceLenBeyondInputRejected: a count larger than the unread bytes
// cannot be honest (every element takes a byte or more), so it fails before
// any decoder sizes a slice by it.
func TestSliceLenBeyondInputRejected(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(3)
	r := NewReader(append(w.Bytes(), 1, 2))
	_ = r.SliceLen()
	if !errors.Is(r.Err(), ErrOverflow) {
		t.Fatalf("expected ErrOverflow, got %v", r.Err())
	}
	r = NewReader(append(w.Bytes(), 1, 2, 3))
	if n := r.SliceLen(); n != 3 || r.Err() != nil {
		t.Fatalf("count within the input: got %d, %v", n, r.Err())
	}
}

func TestBytesFieldCopies(t *testing.T) {
	w := NewWriter(0)
	w.BytesField([]byte("abc"))
	buf := w.Bytes()
	r := NewReader(buf)
	got := r.BytesField()
	buf[len(buf)-1] = 'X' // mutate the underlying buffer
	if string(got) != "abc" {
		t.Fatalf("decoded field aliases the input: %q", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: any (uvarint, int32, bytes) triple round-trips exactly and
	// consumes the whole buffer.
	if err := quick.Check(func(u uint64, i int32, b []byte) bool {
		w := NewWriter(0)
		w.Uvarint(u)
		w.Int32(i)
		w.BytesField(b)
		r := NewReader(w.Bytes())
		gu := r.Uvarint()
		gi := r.Int32()
		gb := r.BytesField()
		return r.Finish() == nil && gu == u && gi == i && bytes.Equal(gb, b)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	// Property: arbitrary bytes never panic the reader, whatever sequence
	// of reads we attempt.
	if err := quick.Check(func(garbage []byte) bool {
		r := NewReader(garbage)
		_ = r.Uvarint()
		_ = r.Bool()
		_ = r.Int32()
		_ = r.BytesField()
		_ = r.SliceLen()
		_ = r.Uint8()
		_ = r.Finish()
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNonCanonicalVarintRejected(t *testing.T) {
	// A padded varint (e.g. 0x80 0x00 for zero) decodes to the same value
	// as its minimal form; the reader must reject it so that no two byte
	// strings decode to one message.
	cases := [][]byte{
		{0x80, 0x00},       // 0, padded to two bytes
		{0xFF, 0x00},       // 127, padded to two bytes
		{0x80, 0x80, 0x00}, // 0, padded to three bytes
	}
	for _, buf := range cases {
		r := NewReader(buf)
		r.Uvarint()
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Fatalf("padded uvarint % x accepted (err=%v)", buf, r.Err())
		}
		r = NewReader(buf)
		r.Int32()
		if !errors.Is(r.Err(), ErrNonCanonical) {
			t.Fatalf("padded varint % x accepted (err=%v)", buf, r.Err())
		}
	}
	// The single zero byte is the canonical encoding of zero and must pass.
	r := NewReader([]byte{0x00})
	if v := r.Uvarint(); v != 0 || r.Finish() != nil {
		t.Fatalf("canonical zero rejected: v=%d err=%v", v, r.Finish())
	}
}
