package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
	"unicode/utf8"
)

// Minimum encoded sizes of one record: every string empty (one length
// byte), every int one varint byte, every float its 8 bytes. A count
// larger than the remaining bytes over these is refused before the
// slice is allocated.
const (
	minJobRecordLen  = 5 + 7*8         // 5 strings, 7 floats
	minAcctRecordLen = 1 + 5 + 1 + 8*8 // V, 5 strings, Phase, 8 floats
)

// encoder writes the batch and ack payloads. Encoding runs the same
// field walk twice: a sizing pass that counts bytes and checks every
// value is encodable, then a writing pass into a buffer of exactly
// that size.
type encoder struct {
	sizing  bool
	n       int    // bytes counted by the sizing pass
	err     error  // first unencodable value the sizing pass met
	badUTF8 bool   // the sizing pass met a string that is not UTF-8
	buf     []byte // the writing pass's output
}

func (e *encoder) uvarint(x uint64) {
	if e.sizing {
		e.n += uvarintLen(x)
		return
	}
	e.buf = binary.AppendUvarint(e.buf, x)
}

// int writes v as a zigzag varint.
func (e *encoder) int(v int) { e.uvarint(uint64(int64(v)<<1) ^ uint64(int64(v)>>63)) }

// f64 writes v as 8 big-endian IEEE-754 bytes. NaN and ±Inf are
// unencodable, as they were for JSON.
func (e *encoder) f64(v float64) {
	if e.sizing {
		if e.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
			e.err = fmt.Errorf("unsupported value %v", v)
		}
		e.n += 8
		return
	}
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// str writes s as its uvarint length then its bytes. A string that is
// not valid UTF-8 is written with each run of invalid bytes replaced
// by U+FFFD (JSON replaced each invalid byte), so every payload
// decodes. Only the sizing pass checks, unless it found one.
func (e *encoder) str(s string) {
	if (e.sizing || e.badUTF8) && !utf8.ValidString(s) {
		e.badUTF8 = true
		s = strings.ToValidUTF8(s, string(utf8.RuneError))
	}
	e.uvarint(uint64(len(s)))
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

func (e *encoder) batch(b *Batch) {
	e.str(b.ID)
	e.str(b.Node)
	e.uvarint(uint64(len(b.Records)))
	for i := range b.Records {
		r := &b.Records[i]
		e.str(r.JobID)
		e.str(r.StepID)
		e.str(r.Node)
		e.str(r.App)
		e.str(r.Policy)
		e.f64(r.TimeSec)
		e.f64(r.EnergyJ)
		e.f64(r.AvgPower)
		e.f64(r.AvgCPU)
		e.f64(r.AvgIMC)
		e.f64(r.AvgCPI)
		e.f64(r.AvgGBs)
	}
	e.uvarint(uint64(len(b.Acct)))
	for i := range b.Acct {
		r := &b.Acct[i]
		e.int(r.V)
		e.str(r.JobID)
		e.str(r.StepID)
		e.str(r.User)
		e.str(r.Node)
		e.str(r.Policy)
		e.int(r.Phase)
		e.f64(r.StartSec)
		e.f64(r.EndSec)
		e.f64(r.PkgJ)
		e.f64(r.DramJ)
		e.f64(r.UncoreJ)
		e.f64(r.NodeJ)
		e.f64(r.AvgCPUGHz)
		e.f64(r.AvgIMCGHz)
	}
}

func (e *encoder) ack(a *Ack) {
	e.str(a.BatchID)
	e.int(a.Accepted)
	e.int(a.Duplicate)
	e.int(a.Replaced)
}

// grow ends the sizing pass: it reports the first unencodable value,
// or allocates the exact-size buffer for the writing pass. The payload
// is the only allocation an encode makes.
func (e *encoder) grow(t Type) error {
	if e.err != nil {
		return fmt.Errorf("wire: encode %s: %w", t, e.err)
	}
	e.sizing = false
	e.buf = make([]byte, 0, e.n)
	return nil
}

// uvarintLen is the byte count of x as a minimal uvarint.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// decoder reads a batch or ack payload in two passes over the same
// field walk. The checking pass validates every field, allocates the
// record slices and counts the string bytes; the string pass copies
// those bytes into one buffer of exactly that size and slices every
// string field from it. A decode so makes one allocation for all its
// strings plus one per record slice, and a stored record keeps only
// string bytes reachable, not the whole payload. The first failure
// sticks; later reads return zero values.
type decoder struct {
	t    Type
	p    []byte
	off  int
	err  error
	nstr int             // string bytes counted by the checking pass
	pass bool            // on the string pass
	strs strings.Builder // the string pass's buffer
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w (%s): %s at byte %d", ErrPayload, d.t, msg, d.off)
	}
}

func (d *decoder) remaining() int { return len(d.p) - d.off }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.p[d.off:])
	switch {
	case n == 0:
		d.fail("truncated varint")
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits")
		return 0
	case n != uvarintLen(x):
		d.fail("non-minimal varint")
		return 0
	}
	d.off += n
	return x
}

func (d *decoder) int() int {
	x := d.uvarint()
	v := int64(x>>1) ^ -int64(x&1)
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.p[d.off:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite float")
		return 0
	}
	d.off += 8
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail("truncated string")
		return ""
	}
	raw := d.p[d.off : d.off+int(n)]
	if !d.pass {
		if !utf8.Valid(raw) {
			d.fail("string is not valid UTF-8")
			return ""
		}
		d.nstr += len(raw)
	}
	d.off += len(raw)
	if !d.pass || len(raw) == 0 {
		return ""
	}
	// The buffer was grown to hold every string, so writes never move
	// it and earlier fields stay valid slices of it.
	d.strs.Write(raw)
	all := d.strs.String()
	return all[len(all)-len(raw):]
}

// count reads a slice length and refuses one the remaining bytes
// cannot hold at minLen bytes per element, before anything is
// allocated for it.
func (d *decoder) count(minLen int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.remaining()/minLen) {
		d.fail(fmt.Sprintf("count %d exceeds the remaining bytes", n))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// records returns s when the checking pass already made it n long,
// else a new slice of n elements (nil for none).
func records[T any](s []T, n int) []T {
	if n == 0 || len(s) == n {
		return s
	}
	return make([]T, n)
}

func (d *decoder) batch(b *Batch) {
	b.ID = d.str()
	b.Node = d.str()
	b.Records = records(b.Records, d.count(minJobRecordLen))
	for i := range b.Records {
		r := &b.Records[i]
		r.JobID = d.str()
		r.StepID = d.str()
		r.Node = d.str()
		r.App = d.str()
		r.Policy = d.str()
		r.TimeSec = d.f64()
		r.EnergyJ = d.f64()
		r.AvgPower = d.f64()
		r.AvgCPU = d.f64()
		r.AvgIMC = d.f64()
		r.AvgCPI = d.f64()
		r.AvgGBs = d.f64()
	}
	b.Acct = records(b.Acct, d.count(minAcctRecordLen))
	for i := range b.Acct {
		r := &b.Acct[i]
		r.V = d.int()
		r.JobID = d.str()
		r.StepID = d.str()
		r.User = d.str()
		r.Node = d.str()
		r.Policy = d.str()
		r.Phase = d.int()
		r.StartSec = d.f64()
		r.EndSec = d.f64()
		r.PkgJ = d.f64()
		r.DramJ = d.f64()
		r.UncoreJ = d.f64()
		r.NodeJ = d.f64()
		r.AvgCPUGHz = d.f64()
		r.AvgIMCGHz = d.f64()
	}
}

func (d *decoder) ack(a *Ack) {
	a.BatchID = d.str()
	a.Accepted = d.int()
	a.Duplicate = d.int()
	a.Replaced = d.int()
}

// rewind ends the checking pass: it refuses trailing bytes and returns
// the first failure, or sizes the string buffer to the string bytes
// counted and rewinds for the string pass.
func (d *decoder) rewind() error {
	if d.err == nil && d.off != len(d.p) {
		d.fail(fmt.Sprintf("trailing bytes (%d)", d.remaining()))
	}
	if d.err != nil {
		return d.err
	}
	d.strs.Grow(d.nstr)
	d.off, d.pass = 0, true
	return nil
}
