package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime/metrics"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
	"goear/internal/telemetry/trace"
)

// traceZeros is a full-length trace block with a valid version but a
// zero trace ID — the non-canonical form the decoder must refuse.
func traceZeros() []byte {
	blk := make([]byte, traceBlockLen)
	blk[0] = byte(traceBlockVersion)
	return blk
}

// FuzzFrame hammers the decoder with arbitrary bytes and checks the
// codec's two safety contracts: decoding never panics whatever the
// input (malformed length prefixes, truncated payloads, version skew
// all surface as errors), and any frame that does decode re-encodes
// byte-identically — the codec has one canonical wire form.
func FuzzFrame(f *testing.F) {
	// Seed with well-formed frames of every type ...
	batch, err := EncodeBatch(Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "1", StepID: "0", Node: "n01", TimeSec: 1, EnergyJ: 100, AvgPower: 100},
	}})
	if err != nil {
		f.Fatal(err)
	}
	seeds := []Frame{batch}
	if ack, err := EncodeAck(Ack{BatchID: "n01/1", Accepted: 1}); err == nil {
		seeds = append(seeds, ack)
	}
	if ef, err := EncodeError("boom"); err == nil {
		seeds = append(seeds, ef)
	}
	if q, err := EncodeQuery(Query{Kind: QueryStats}); err == nil {
		seeds = append(seeds, q)
	}
	// Traced variants exercise the optional context block.
	traced := batch
	traced.Trace = trace.Context{TraceID: 0x1122334455667788, SpanID: 0x99AABBCCDDEEFF00, Flags: 3}
	seeds = append(seeds, traced)
	for _, s := range seeds {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, s, 0); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// ... and with deliberately broken headers: bad magic, future
	// version, unknown type, reserved flags, lying length prefixes,
	// malformed trace blocks.
	f.Add(header(0xDEADBEEF, Version, 2, 0, 0))
	f.Add(header(Magic, Version+3, 2, 0, 0))
	f.Add(header(Magic, Version, 250, 0, 0))
	f.Add(header(Magic, Version, 2, 0xFFFF, 0))
	f.Add(header(Magic, Version, 2, 0, 0xFFFFFFFF))
	f.Add(append(header(Magic, Version, 2, 0, 100), "short"...))
	f.Add(header(Magic, Version, 2, uint16(FlagTrace), 0))                          // flag with no block
	f.Add(append(header(Magic, Version, 2, uint16(FlagTrace), 0), 9, 0))            // future block version
	f.Add(append(header(Magic, Version, 2, uint16(FlagTrace), 0), traceZeros()...)) // zero trace id

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 4096)
		if err != nil {
			// Every failure must be a typed protocol error (ReadFrame
			// treats payload bytes as opaque, so no payload error can
			// surface here), and EOF conditions must be the io sentinels.
			if errors.Is(err, ErrMagic) || errors.Is(err, ErrVersion) ||
				errors.Is(err, ErrType) || errors.Is(err, ErrFlags) ||
				errors.Is(err, ErrTooLarge) || errors.Is(err, ErrTrace) ||
				errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return
			}
			t.Fatalf("unexpected error class: %v", err)
		}
		// Decoded frames re-encode to the exact consumed bytes (header,
		// optional trace block, payload).
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr, 4096); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		consumed := headerLen + len(fr.Payload)
		if fr.Trace.Valid() {
			consumed += traceBlockLen
		}
		if want := data[:consumed]; !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", buf.Bytes(), want)
		}
		// Typed payload decoding must never panic either, whatever bytes
		// the payload holds (FuzzBatchPayload and FuzzAckPayload check
		// the batch and ack codecs' own contracts).
		switch fr.Type {
		case TypeBatch:
			_, _ = fr.AsBatch()
		case TypeAck:
			_, _ = fr.AsAck()
		case TypeError:
			_, _ = fr.AsError()
		case TypeQuery:
			_, _ = fr.AsQuery()
		case TypeResult:
			_, _ = fr.AsResult()
		}
	})
}

// checkPayload holds a payload codec to its contracts on p: decoding
// fails only with ErrPayload, allocates no more than a small multiple
// of len(p) (every record costs at least its minimum encoded size, so
// a count the bytes cannot back must be refused before its slice is
// allocated), and whatever it accepts re-encodes byte-identically.
func checkPayload[T any](t *testing.T, p []byte, decode func() (T, error), encode func(T) (Frame, error)) {
	t.Helper()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	got, err := decode()
	// Read without stopping the world, which keeps the fuzz loop fast;
	// small objects are counted at the runtime's span granularity.
	metrics.Read(s)
	if n, limit := s[0].Value.Uint64()-before, 8*uint64(len(p))+64<<10; n > limit {
		t.Fatalf("decoding %d payload bytes allocated %d bytes (limit %d)", len(p), n, limit)
	}
	if err != nil {
		if !errors.Is(err, ErrPayload) {
			t.Fatalf("unexpected error class: %v", err)
		}
		return
	}
	re, err := encode(got)
	if err != nil {
		t.Fatalf("re-encode of decoded payload failed: %v", err)
	}
	if !bytes.Equal(re.Payload, p) {
		t.Fatalf("re-encode differs:\n got %x\nwant %x", re.Payload, p)
	}
}

// payloadSeeds returns a valid payload and malformed variants of it:
// one trailing byte, a non-minimal first varint and invalid UTF-8 in
// the first string. The last seed claims 2^60 job records when read as
// a batch (an ack reads it as a large count field).
func payloadSeeds(valid []byte) [][]byte {
	nonMinimal := append([]byte{valid[0] | 0x80, 0x00}, valid[1:]...)
	badUTF8 := bytes.Clone(valid)
	badUTF8[1] = 0xFF
	return [][]byte{
		valid,
		append(bytes.Clone(valid), 0),
		nonMinimal,
		badUTF8,
		{0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10, 0},
	}
}

// FuzzBatchPayload checks the batch codec's contracts on arbitrary
// payload bytes: decoding never panics, refuses everything it does not
// accept with ErrPayload, never allocates for records the bytes cannot
// hold, and every payload it accepts re-encodes byte-identically — one
// canonical encoding per batch.
func FuzzBatchPayload(f *testing.F) {
	b := Batch{ID: "n01/1", Node: "n01", Records: []eard.JobRecord{
		{JobID: "1", StepID: "0", Node: "n01", App: "BT-MZ.C", TimeSec: 1, EnergyJ: 100, AvgPower: 100},
	}, Acct: []accounting.Record{{V: 1, JobID: "1", StepID: "0", User: "u", Node: "n01", Phase: 3, EndSec: 1}}}
	valid, err := EncodeBatch(b)
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range payloadSeeds(valid.Payload) {
		f.Add(s)
	}
	// 10000 job records claimed by 5 bytes: refused, not allocated.
	f.Add([]byte{0, 0, 0x90, 0x4E, 0})
	// The record's floats start after ID, Node, the count and its five
	// strings; overwrite TimeSec with NaN and EnergyJ with +Inf.
	off := 6 + 4 + 1 + 2 + 2 + 4 + 8 + 1
	for _, bits := range []uint64{math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1))} {
		p := bytes.Clone(valid.Payload)
		binary.BigEndian.PutUint64(p[off:], bits)
		f.Add(p)
		off += 8
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		checkPayload(t, p, Frame{Type: TypeBatch, Payload: p}.AsBatch, EncodeBatch)
	})
}

// FuzzAckPayload checks the ack codec's contracts, as FuzzBatchPayload
// does for batches.
func FuzzAckPayload(f *testing.F) {
	valid, err := EncodeAck(Ack{BatchID: "n01/1", Accepted: 3, Duplicate: 1, Replaced: -2})
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range payloadSeeds(valid.Payload) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		checkPayload(t, p, Frame{Type: TypeAck, Payload: p}.AsAck, EncodeAck)
	})
}
