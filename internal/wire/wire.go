// Package wire is the one decoding layer under every binary frame in this
// repository: RCR1, RCRF, RCRD, CAPW, CAPA, MEMW and MEMA in internal/rcr,
// CLSM in internal/cluster.
//
// Shared rules, which the formats' own comments do not repeat. All
// integers are little-endian; floats travel as their IEEE 754 bits.
// Decoding is strict: a field that runs past the end of the frame fails,
// a count is checked against its bound before anything is sized from
// it, and bytes left over after the last field fail. Encoding is
// canonical — a frame that decodes re-encodes to the identical bytes —
// so a decoder also rejects every second spelling of a value (reserved
// zeros, unknown flag bits, payload bits without their flag), each
// stated as a Fail. wiretest.Canonical is that property; every decoder
// is fuzzed against it.
//
// Encoders need nothing from here: they size the frame, slices.Grow
// once, and append with binary.LittleEndian.AppendUint16/32/64.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Reader is a bounds-checked cursor over one frame. Its first failure
// sticks: every later read returns zero and every later Fail is
// ignored, so a decoder reads its fields straight through, states its
// rules, and checks once: its last line is Done or DoneInto.
type Reader struct {
	what string
	data []byte
	off  int
	err  error
}

// NewReader starts a cursor over data. what prefixes every error
// ("rcr: delta frame").
func NewReader(what string, data []byte) *Reader {
	return &Reader{what: what, data: data}
}

// Bytes returns the next n bytes, or nil after a failure. The result
// aliases the frame: copy what outlives it.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.Fail("truncated at byte %d (need %d more)", r.off, n)
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// fixed is Bytes for the fixed-width reads below: after a failure it
// returns eight zero bytes, so they read 0.
func (r *Reader) fixed(n int) []byte {
	if b := r.Bytes(n); b != nil {
		return b
	}
	return zeros[:]
}

var zeros [8]byte

func (r *Reader) U8() uint8    { return r.fixed(1)[0] }
func (r *Reader) U16() uint16  { return binary.LittleEndian.Uint16(r.fixed(2)) }
func (r *Reader) U32() uint32  { return binary.LittleEndian.Uint32(r.fixed(4)) }
func (r *Reader) U64() uint64  { return binary.LittleEndian.Uint64(r.fixed(8)) }
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Magic consumes the frame's four-byte tag and fails unless it is want.
func (r *Reader) Magic(want [4]byte) {
	if b := r.Bytes(4); b != nil && [4]byte(b) != want {
		r.Fail("bad magic %q, want %q", b, string(want[:]))
	}
}

// Count16 reads a uint16 element count and fails if it exceeds max. A
// failed count is 0, so what a decoder sizes from it is bounded by max.
func (r *Reader) Count16(max int) int { return r.count(int(r.U16()), max) }

// Count32 is Count16 for a uint32 count.
func (r *Reader) Count32(max int) int { return r.count(int(r.U32()), max) }

func (r *Reader) count(n, max int) int {
	if n < 0 || n > max {
		r.Fail("count %d exceeds bound %d", n, max)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Fail records a broken format rule; only the first failure is kept.
// Call it under the rule's condition, so a frame that passes builds no
// message.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.what, fmt.Sprintf(format, args...))
	}
}

// Err returns the failure so far. Loops that grow a slice per element
// stop on it; a decoder's verdict is Done.
func (r *Reader) Err() error { return r.err }

// Done is a decoder's last line. It fails the frame if bytes remain,
// then returns v — or, after any failure, the zero T and the first
// error, so no caller is handed a half-decoded value.
func Done[T any](r *Reader, v T) (T, error) {
	if r.err == nil && r.off != len(r.data) {
		r.Fail("%d trailing bytes", len(r.data)-r.off)
	}
	if r.err != nil {
		var zero T
		return zero, r.err
	}
	return v, nil
}

// DoneInto is Done for a decoder that fills its caller's frame: after
// any failure *f is zeroed.
func DoneInto[T any](r *Reader, f *T) (err error) {
	*f, err = Done(r, *f)
	return err
}

// HasMagic reports whether data begins with the frame tag want — how a
// receiver of mixed frame kinds picks the decoder.
func HasMagic(data []byte, want [4]byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == want
}
