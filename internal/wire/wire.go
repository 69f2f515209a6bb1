// Package wire is the framed protocol spoken between EAR's node-side
// reporting clients and the database daemon (package eardbd). EAR's
// real deployment streams job signatures from every node daemon to
// EARDBD over plain sockets; this codec reproduces that surface with a
// length-prefixed, versioned binary header, a fixed-layout binary
// payload for the ingest hot path (batches and acks) and JSON payloads
// for the human-facing frames (errors, queries, results).
//
// Every frame is
//
//	magic   uint32  "EARW"
//	version uint8   protocol version, currently 2
//	type    uint8   frame type (batch, ack, error, query, result)
//	flags   uint16  reserved, must be zero
//	length  uint32  payload byte count
//	payload [length]byte
//
// all big-endian. Decoding is defensive: bad magic, unknown versions,
// unknown types, oversized lengths and truncated payloads are errors,
// never panics — the daemon must survive arbitrary bytes on its
// listening socket.
//
// Batch and ack payloads write their fields in struct order: a string
// as its uvarint byte length then the bytes, an int as a zigzag
// varint, a float64 as 8 big-endian IEEE-754 bytes, a record slice as
// a uvarint count then the elements —
//
//	batch  ID, Node, Records []eard.JobRecord, Acct []accounting.Record
//	ack    BatchID, Accepted, Duplicate, Replaced
//
// Version 1 carried JSON there; version skew fails with ErrVersion
// rather than a misparse. The payload decoder is canonical: trailing
// bytes, truncated fields, non-minimal varints, out-of-range ints,
// NaN or ±Inf floats, strings that are not valid UTF-8 and record
// counts the remaining bytes cannot hold (refused before allocating)
// all fail with ErrPayload, so every accepted payload re-encodes
// byte-identically and carries only what JSON could.
//
// One flag bit is defined: FlagTrace marks that an 18-byte trace
// context block sits between the header and the payload —
//
//	ctx version uint8   trace block version, currently 1
//	ctx flags   uint8   trace flags, carried verbatim
//	trace id    uint64  the request's trace identifier (non-zero)
//	span id     uint64  the sender's span, parent of the receiver's
//
// so a batch or query can be followed across processes as one span
// tree. Frames without the flag carry no block; peers that never set
// the flag interoperate unchanged.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// Magic identifies a goear wire frame ("EARW").
const Magic uint32 = 0x45415257

// Version is the protocol version this package speaks. Decoding a
// frame with any other version fails with ErrVersion: version skew is
// surfaced to the peer instead of being misparsed.
const Version uint8 = 2

// headerLen is the fixed frame header size in bytes.
const headerLen = 12

// FlagTrace marks a frame carrying a trace context block between the
// header and the payload. All other flag bits stay reserved-must-be-
// zero.
const FlagTrace uint16 = 0x0001

// traceBlockLen is the trace context block size in bytes.
const traceBlockLen = 18

// traceBlockVersion is the trace block layout this package speaks.
// The block is versioned independently of the frame header so the
// context can grow (baggage, sampling state) without a protocol
// version bump that would sever untraced peers.
const traceBlockVersion uint8 = 1

// DefaultMaxPayload bounds a frame payload unless the caller chooses
// its own limit. One megabyte comfortably holds the largest record
// batch a client may send while keeping a malicious length prefix from
// ballooning server memory.
const DefaultMaxPayload = 1 << 20

// Type enumerates the frame kinds.
type Type uint8

const (
	// TypeBatch carries a Batch of job records, client to server.
	TypeBatch Type = iota + 1
	// TypeAck acknowledges a batch, server to client.
	TypeAck
	// TypeError reports a protocol or validation failure.
	TypeError
	// TypeQuery asks the server for a snapshot (stats, aggregate, ...).
	TypeQuery
	// TypeResult carries a query response.
	TypeResult

	typeEnd // one past the last valid type
)

func (t Type) String() string {
	switch t {
	case TypeBatch:
		return "batch"
	case TypeAck:
		return "ack"
	case TypeError:
		return "error"
	case TypeQuery:
		return "query"
	case TypeResult:
		return "result"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Decoding error values, matchable with errors.Is.
var (
	ErrMagic    = errors.New("wire: bad magic")
	ErrVersion  = errors.New("wire: protocol version skew")
	ErrType     = errors.New("wire: unknown frame type")
	ErrFlags    = errors.New("wire: reserved flags set")
	ErrTooLarge = errors.New("wire: frame exceeds payload limit")
	ErrTrace    = errors.New("wire: malformed trace context block")
	// ErrPayload reports a batch or ack payload the binary decoder
	// refuses: truncated or trailing bytes, a non-minimal varint, an
	// integer out of range, a record count the remaining bytes cannot
	// hold, a non-finite float or a string that is not valid UTF-8.
	ErrPayload = errors.New("wire: malformed payload")
)

// Frame is one decoded frame: a type, its raw payload, and the
// optional trace context it rode with (zero Context = untraced).
type Frame struct {
	Type    Type
	Payload []byte
	Trace   trace.Context
}

// coalesceMax is the largest payload WriteFrame copies behind the
// header to send the frame in one Write. Larger payloads (query
// results) go out in a second Write rather than being copied.
const coalesceMax = 16 << 10

// scratch recycles the buffers frames are assembled and their headers
// read in, so neither direction allocates per frame for them. Readers
// and writers must not retain the slices they are given (io.Reader,
// io.Writer), which makes the reuse safe.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, 0, headerLen+traceBlockLen)
	return &b
}}

// WriteFrame encodes f to w. Writing a frame larger than maxPayload is
// refused so a misconfigured client fails locally rather than being
// dropped by the server; maxPayload <= 0 means DefaultMaxPayload.
// Frames with payloads up to coalesceMax go out in a single Write.
func WriteFrame(w io.Writer, f Frame, maxPayload int) error {
	if f.Type == 0 || f.Type >= typeEnd {
		return fmt.Errorf("%w: %d", ErrType, uint8(f.Type))
	}
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(f.Payload) > maxPayload {
		return fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, len(f.Payload), maxPayload)
	}
	var flags uint16
	if f.Trace.Valid() {
		flags |= FlagTrace
	}
	bp := scratch.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*bp)[:0], Magic)
	buf = append(buf, Version, uint8(f.Type))
	buf = binary.BigEndian.AppendUint16(buf, flags)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	if f.Trace.Valid() {
		buf = append(buf, traceBlockVersion, f.Trace.Flags)
		buf = binary.BigEndian.AppendUint64(buf, f.Trace.TraceID)
		buf = binary.BigEndian.AppendUint64(buf, f.Trace.SpanID)
	}
	var err error
	if len(f.Payload) <= coalesceMax {
		buf = append(buf, f.Payload...)
		_, err = w.Write(buf)
	} else if _, err = w.Write(buf); err == nil {
		_, err = w.Write(f.Payload)
	}
	*bp = buf[:0]
	scratch.Put(bp)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame decodes one frame from r, refusing payloads larger than
// maxPayload (<= 0 means DefaultMaxPayload). A clean EOF before any
// header byte returns io.EOF; a header or payload cut short returns an
// error wrapping io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	bp := scratch.Get().(*[]byte)
	defer scratch.Put(bp)
	hdr := (*bp)[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) && err != io.ErrUnexpectedEOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("wire: read header: %w", err)
	}
	if got := binary.BigEndian.Uint32(hdr[0:4]); got != Magic {
		return Frame{}, fmt.Errorf("%w: 0x%08X", ErrMagic, got)
	}
	if hdr[4] != Version {
		return Frame{}, fmt.Errorf("%w: peer speaks version %d, this side %d", ErrVersion, hdr[4], Version)
	}
	t := Type(hdr[5])
	if t == 0 || t >= typeEnd {
		return Frame{}, fmt.Errorf("%w: %d", ErrType, hdr[5])
	}
	flags := binary.BigEndian.Uint16(hdr[6:8])
	if flags&^FlagTrace != 0 {
		return Frame{}, fmt.Errorf("%w: 0x%04X", ErrFlags, flags)
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if int64(n) > int64(maxPayload) {
		return Frame{}, fmt.Errorf("%w: %d bytes > limit %d", ErrTooLarge, n, maxPayload)
	}
	var tc trace.Context
	if flags&FlagTrace != 0 {
		blk := (*bp)[:traceBlockLen]
		if _, err := io.ReadFull(r, blk); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, fmt.Errorf("wire: read trace block: %w", err)
		}
		if blk[0] != traceBlockVersion {
			return Frame{}, fmt.Errorf("%w: version %d, this side %d", ErrTrace, blk[0], traceBlockVersion)
		}
		tc = trace.Context{
			Flags:   blk[1],
			TraceID: binary.BigEndian.Uint64(blk[2:10]),
			SpanID:  binary.BigEndian.Uint64(blk[10:18]),
		}
		if !tc.Valid() {
			// A zero trace ID means "untraced", which the flag
			// contradicts; refusing it keeps the encoding canonical
			// (every decoded frame re-encodes byte-identically).
			return Frame{}, fmt.Errorf("%w: zero trace id", ErrTrace)
		}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			// The header promised n payload bytes; any shortfall is a
			// truncated frame, even at zero bytes read.
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("wire: read payload: %w", err)
	}
	return Frame{Type: t, Payload: payload, Trace: tc}, nil
}

// Batch is the unit a client ships: records under a client-assigned
// identifier. The ID is what makes journal replay exactly-once — a
// batch resent after a lost ack carries the same ID and the server
// drops the duplicate. Acct carries per-job energy-attribution
// records alongside the node reports; riding the same batch gives
// them the same dedup, spill and replay semantics for free. Every
// acct record carries its own codec version (accounting.CodecVersion),
// which the server's validation checks. The JSON tags serve the
// client's spill journal; on the wire a batch is the binary payload.
type Batch struct {
	ID      string              `json:"id"`
	Node    string              `json:"node"`
	Records []eard.JobRecord    `json:"records"`
	Acct    []accounting.Record `json:"acct,omitempty"`
}

// Ack acknowledges one batch. Accepted counts fresh records,
// Duplicate identical re-deliveries, Replaced records that updated an
// existing (job, step, node) entry with different content.
type Ack struct {
	BatchID   string
	Accepted  int
	Duplicate int
	Replaced  int
}

// ErrorFrame reports a failure to the peer.
type ErrorFrame struct {
	Message string `json:"message"`
}

// Query asks the server for a snapshot. Kind selects the view; Job
// and Step scope the "summary" kind. User, Since, Limit and Cursor
// scope and paginate the "acct_jobs" kind (Job doubles as its job
// filter).
type Query struct {
	Kind   string  `json:"kind"`
	Job    string  `json:"job,omitempty"`
	Step   string  `json:"step,omitempty"`
	User   string  `json:"user,omitempty"`
	Since  float64 `json:"since,omitempty"`
	Limit  int     `json:"limit,omitempty"`
	Cursor string  `json:"cursor,omitempty"`
}

// Query kinds.
const (
	QueryStats     = "stats"
	QueryAggregate = "aggregate"
	QueryJobs      = "jobs"
	QuerySummary   = "summary"
	// QueryNodePowers returns the last reported DC power of every node
	// as a name-sorted []NodePower: the view a federation root merges
	// across shards, and what makes the merged eargm feed byte-identical
	// to a single daemon's.
	QueryNodePowers = "node_powers"
	// QueryRecords dumps every stored record sorted by (job, step,
	// node). The federation root folds shard dumps into one database so
	// merged summaries run the exact arithmetic a single daemon would.
	QueryRecords = "records"
	// QueryAcctJobs serves one filtered, cursor-paginated page of
	// per-job energy records (an accounting.Page).
	QueryAcctJobs = "acct_jobs"
	// QueryAcctRecords dumps every stored accounting record in
	// canonical (job, step, node, phase) order — the bulk path the
	// federation root merges shards by.
	QueryAcctRecords = "acct_records"
	// QueryGeneration returns the store's mutation counter (a
	// Generation). Snapshot caches poll it: unchanged generations mean
	// the cached merge is still exact.
	QueryGeneration = "generation"
)

// Generation is a store mutation counter, the QueryGeneration result.
// It advances on every accepted or replaced record — node report or
// accounting record alike — so equality implies identical contents.
type Generation struct {
	Gen uint64 `json:"gen"`
}

// NodePower is one node's last reported DC power, the element of a
// QueryNodePowers result.
type NodePower struct {
	Node   string  `json:"node"`
	PowerW float64 `json:"power_w"`
}

// Result wraps a query response as raw JSON for the caller to decode
// into the kind-specific shape.
type Result struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Decode unmarshals the result data into the kind-specific shape.
func (r Result) Decode(v any) error {
	if err := json.Unmarshal(r.Data, v); err != nil {
		return fmt.Errorf("wire: decode %s result: %w", r.Kind, err)
	}
	return nil
}

// EncodeBatch builds a TypeBatch frame with the binary payload. Its
// input domain is JSON's: it refuses NaN and ±Inf, and carries a
// string that is not valid UTF-8 with its invalid bytes replaced by
// U+FFFD, so every payload it builds decodes.
func EncodeBatch(b Batch) (Frame, error) {
	e := encoder{sizing: true}
	e.batch(&b)
	if err := e.grow(TypeBatch); err != nil {
		return Frame{}, err
	}
	e.batch(&b)
	return Frame{Type: TypeBatch, Payload: e.buf}, nil
}

// EncodeAck builds a TypeAck frame with the binary payload.
func EncodeAck(a Ack) (Frame, error) {
	e := encoder{sizing: true}
	e.ack(&a)
	if err := e.grow(TypeAck); err != nil {
		return Frame{}, err
	}
	e.ack(&a)
	return Frame{Type: TypeAck, Payload: e.buf}, nil
}

// EncodeError builds a TypeError frame.
func EncodeError(msg string) (Frame, error) { return marshal(TypeError, ErrorFrame{Message: msg}) }

// EncodeQuery builds a TypeQuery frame.
func EncodeQuery(q Query) (Frame, error) { return marshal(TypeQuery, q) }

// EncodeResult builds a TypeResult frame around already-encoded data.
func EncodeResult(kind string, data any) (Frame, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: encode result data: %w", err)
	}
	return marshal(TypeResult, Result{Kind: kind, Data: raw})
}

func marshal(t Type, v any) (Frame, error) {
	p, err := json.Marshal(v)
	if err != nil {
		return Frame{}, fmt.Errorf("wire: encode %s: %w", t, err)
	}
	return Frame{Type: t, Payload: p}, nil
}

// AsBatch decodes a TypeBatch frame. Malformed payloads fail with an
// error wrapping ErrPayload.
func (f Frame) AsBatch() (Batch, error) {
	if err := f.is(TypeBatch); err != nil {
		return Batch{}, err
	}
	var b Batch
	d := decoder{t: TypeBatch, p: f.Payload}
	d.batch(&b)
	if err := d.rewind(); err != nil {
		return Batch{}, err
	}
	d.batch(&b)
	return b, nil
}

// AsAck decodes a TypeAck frame. Malformed payloads fail with an error
// wrapping ErrPayload.
func (f Frame) AsAck() (Ack, error) {
	if err := f.is(TypeAck); err != nil {
		return Ack{}, err
	}
	var a Ack
	d := decoder{t: TypeAck, p: f.Payload}
	d.ack(&a)
	if err := d.rewind(); err != nil {
		return Ack{}, err
	}
	d.ack(&a)
	return a, nil
}

// AsError decodes a TypeError frame.
func (f Frame) AsError() (ErrorFrame, error) {
	var e ErrorFrame
	return e, f.unmarshal(TypeError, &e)
}

// AsQuery decodes a TypeQuery frame.
func (f Frame) AsQuery() (Query, error) {
	var q Query
	return q, f.unmarshal(TypeQuery, &q)
}

// AsResult decodes a TypeResult frame.
func (f Frame) AsResult() (Result, error) {
	var r Result
	return r, f.unmarshal(TypeResult, &r)
}

func (f Frame) is(want Type) error {
	if f.Type != want {
		return fmt.Errorf("wire: frame is %s, not %s", f.Type, want)
	}
	return nil
}

func (f Frame) unmarshal(want Type, v any) error {
	if err := f.is(want); err != nil {
		return err
	}
	if err := json.Unmarshal(f.Payload, v); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", want, err)
	}
	return nil
}
