package wire

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

var tag = [4]byte{'T', 'E', 'S', 'T'}

// testFrame is every field kind once: tag, u8, u16, u32, u64, i64, f64,
// a counted byte string.
func testFrame() []byte {
	b := append([]byte(nil), tag[:]...)
	b = append(b, 7)
	b = binary.LittleEndian.AppendUint16(b, 0x0102)
	b = binary.LittleEndian.AppendUint32(b, 0x03040506)
	b = binary.LittleEndian.AppendUint64(b, 0x0708090a0b0c0d0e)
	b = binary.LittleEndian.AppendUint64(b, uint64(math.MaxUint64)) // -1
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(62.5))
	b = binary.LittleEndian.AppendUint16(b, 3)
	return append(b, "abc"...)
}

type decoded struct {
	u8   uint8
	u16  uint16
	u32  uint32
	u64  uint64
	i64  int64
	f64  float64
	name string
}

func decode(data []byte) (decoded, error) {
	r := NewReader("test: frame", data)
	r.Magic(tag)
	d := decoded{u8: r.U8(), u16: r.U16(), u32: r.U32(), u64: r.U64(), i64: r.I64(), f64: r.F64()}
	d.name = string(r.Bytes(r.Count16(8)))
	return Done(r, d)
}

func TestReaderReadsEveryWidth(t *testing.T) {
	got, err := decode(testFrame())
	if err != nil {
		t.Fatal(err)
	}
	want := decoded{7, 0x0102, 0x03040506, 0x0708090a0b0c0d0e, -1, 62.5, "abc"}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestReaderFailureSticks: every proper prefix and any trailing byte
// fails, a failed decode hands back the zero value, the first failure
// is the one reported, and reads after it return zero.
func TestReaderFailureSticks(t *testing.T) {
	frame := testFrame()
	for n := 0; n < len(frame); n++ {
		if got, err := decode(frame[:n]); err == nil || got != (decoded{}) {
			t.Fatalf("%d-byte prefix: decoded %+v, err %v", n, got, err)
		}
	}
	if _, err := decode(append(frame, 0)); err == nil || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("trailing byte: %v", err)
	}

	r := NewReader("test: frame", frame[:5])
	r.Magic(tag)
	if r.U8() != 7 || r.Err() != nil {
		t.Fatalf("good prefix failed: %v", r.Err())
	}
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("read past the end returned a value")
	}
	first := r.Err()
	r.Fail("a later rule")
	if r.U8() != 0 || r.Bytes(0) != nil || r.Count16(8) != 0 || r.Err() != first {
		t.Fatalf("failure did not stick: %v", r.Err())
	}
	if !strings.HasPrefix(first.Error(), "test: frame: truncated at byte 5") {
		t.Fatalf("error %q does not name the frame and the place", first)
	}
}

func TestReaderMagicAndCounts(t *testing.T) {
	bad := testFrame()
	bad[0] = 'X'
	if _, err := decode(bad); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: %v", err)
	}
	if !HasMagic(testFrame(), tag) || HasMagic(bad, tag) || HasMagic(tag[:3], tag) {
		t.Fatal("HasMagic")
	}

	over := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint16(nil, 9), 1<<31)
	r := NewReader("test: counts", over)
	if n := r.Count16(9); n != 9 || r.Err() != nil {
		t.Fatalf("count at its bound: %d, %v", n, r.Err())
	}
	if n := r.Count32(1 << 20); n != 0 || r.Err() == nil {
		t.Fatalf("count over its bound: %d, %v", n, r.Err())
	}
	if b := NewReader("test: bytes", over).Bytes(-1); b != nil {
		t.Fatal("negative length read bytes")
	}
}

func TestDoneIntoZeroesOnFailure(t *testing.T) {
	type frame struct {
		n    uint16
		vals []byte
	}
	f := frame{vals: make([]byte, 0, 8)}
	r := NewReader("test: into", []byte{2, 0, 'a', 'b'})
	f.n = r.U16()
	f.vals = append(f.vals, r.Bytes(int(f.n))...)
	if err := DoneInto(r, &f); err != nil || f.n != 2 || string(f.vals) != "ab" {
		t.Fatalf("clean decode: %+v, %v", f, err)
	}
	r = NewReader("test: into", []byte{2, 0, 'a'})
	f.n = r.U16()
	f.vals = append(f.vals[:0], r.Bytes(int(f.n))...)
	if err := DoneInto(r, &f); err == nil || f.n != 0 || f.vals != nil {
		t.Fatalf("failed decode left %+v, err %v", f, err)
	}
}

// TestReaderSuccessPathAllocs: a frame that passes costs the cursor
// nothing — messages are built only on failure.
func TestReaderSuccessPathAllocs(t *testing.T) {
	frame := testFrame()
	var sink int
	if n := testing.AllocsPerRun(1000, func() {
		r := NewReader("test: frame", frame)
		r.Magic(tag)
		sink += int(r.U8()) + int(r.U16()) + int(r.U32()) + int(r.U64()) + int(r.I64()) + int(r.F64())
		sink += len(r.Bytes(r.Count16(8)))
		if r.Err() != nil {
			r.Fail("unreachable %d", sink)
		}
		if _, err := Done(r, sink); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("the success path allocates %.1f/op, want 0", n)
	}
}
