package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"goear/internal/accounting"
	"goear/internal/eard"
)

// clientBatch is shaped like the batches eardbd clients cut: four
// records of one node under a "<node>/<seq>" batch ID.
func clientBatch() Batch {
	b := Batch{ID: "node0042/17", Node: "node0042"}
	for j := 0; j < 4; j++ {
		b.Records = append(b.Records, eard.JobRecord{
			JobID: "job" + string(rune('0'+j%3)), StepID: string(rune('0' + j/3)), Node: "node0042",
			App: "BT-MZ.C", Policy: "min_energy",
			TimeSec: 120, EnergyJ: 35856.25 + float64(j), AvgPower: 298.8 + float64(j)/7,
			AvgCPU: 2.1, AvgIMC: 2.4,
		})
	}
	return b
}

func acctRecord() accounting.Record {
	return accounting.Record{V: accounting.CodecVersion, JobID: "1001", StepID: "0", User: "alice",
		Node: "n01", Policy: "min_energy_eufs", Phase: 2, StartSec: 10, EndSec: 20.5,
		PkgJ: 1800.25, DramJ: 210, UncoreJ: 95.5, NodeJ: 2400, AvgCPUGHz: 2.2, AvgIMCGHz: 1.9}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	in := clientBatch()
	in.Acct = []accounting.Record{acctRecord(), {V: -3, Phase: math.MaxInt64, EndSec: math.Copysign(0, -1)}}
	f, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.AsBatch()
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Node != in.Node || len(out.Records) != len(in.Records) || len(out.Acct) != len(in.Acct) {
		t.Fatalf("round trip lost data: %+v", out)
	}
	for i := range in.Records {
		if out.Records[i] != in.Records[i] {
			t.Errorf("record %d = %+v, want %+v", i, out.Records[i], in.Records[i])
		}
	}
	for i := range in.Acct {
		if out.Acct[i] != in.Acct[i] {
			t.Errorf("acct record %d = %+v, want %+v", i, out.Acct[i], in.Acct[i])
		}
	}
	if !math.Signbit(out.Acct[1].EndSec) {
		t.Error("negative zero lost its sign")
	}
	// An empty batch is the two strings and two zero counts.
	f, err = EncodeBatch(Batch{ID: "a", Node: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 'a', 1, 'b', 0, 0}; !bytes.Equal(f.Payload, want) {
		t.Errorf("empty batch payload = %x, want %x", f.Payload, want)
	}
}

func TestAckPayloadLayout(t *testing.T) {
	f, err := EncodeAck(Ack{BatchID: "n1/7", Accepted: 3, Duplicate: -1, Replaced: 64})
	if err != nil {
		t.Fatal(err)
	}
	// String length then bytes; ints as zigzag varints (3 -> 6,
	// -1 -> 1, 64 -> 128 = 0x80 0x01).
	want := []byte{4, 'n', '1', '/', '7', 6, 1, 0x80, 0x01}
	if !bytes.Equal(f.Payload, want) {
		t.Fatalf("ack payload = %x, want %x", f.Payload, want)
	}
	a, err := f.AsAck()
	if err != nil || a != (Ack{BatchID: "n1/7", Accepted: 3, Duplicate: -1, Replaced: 64}) {
		t.Fatalf("ack = %+v, err %v", a, err)
	}
}

// TestEncodeDomainIsJSONs pins that EncodeBatch accepts what
// json.Marshal accepted: non-finite floats are refused, and a string
// that is not valid UTF-8 is carried with its invalid bytes replaced
// by U+FFFD, as JSON carried it.
func TestEncodeDomainIsJSONs(t *testing.T) {
	for name, b := range map[string]Batch{
		"NaN energy": {ID: "x", Records: []eard.JobRecord{{EnergyJ: math.NaN()}}},
		"+Inf time":  {ID: "x", Records: []eard.JobRecord{{TimeSec: math.Inf(1)}}},
		"-Inf acct":  {ID: "x", Acct: []accounting.Record{{NodeJ: math.Inf(-1)}}},
	} {
		if _, err := EncodeBatch(b); err == nil {
			t.Errorf("%s: EncodeBatch succeeded", name)
		}
		if _, err := json.Marshal(b); err == nil {
			t.Errorf("%s: json.Marshal succeeded", name)
		}
	}
	in := Batch{ID: "n\xff/1", Node: "ok", Records: []eard.JobRecord{{App: "\xe2\x82BT"}},
		Acct: []accounting.Record{{User: "caf\xc3\xa9\xff"}}}
	f, err := EncodeBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.AsBatch()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "n\uFFFD/1" || got.Node != "ok" || got.Records[0].App != "\uFFFDBT" || got.Acct[0].User != "café\uFFFD" {
		t.Errorf("decoded %+v", got)
	}
	a, err := EncodeAck(Ack{BatchID: "\xff"})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := a.AsAck(); err != nil || got.BatchID != "\uFFFD" {
		t.Errorf("ack = %+v, %v", got, err)
	}
}

// nanBatch is a hand-built one-record batch payload whose EnergyJ is a
// NaN, the value JSON could not carry.
func nanBatch() []byte {
	f, err := EncodeBatch(Batch{ID: "n/1", Node: "n", Records: []eard.JobRecord{{JobID: "j", Node: "n", TimeSec: 1}}})
	if err != nil {
		panic(err)
	}
	p := bytes.Clone(f.Payload)
	// ID, Node, count, five strings, TimeSec: EnergyJ follows.
	off := 4 + 2 + 1 + (2 + 1 + 2 + 1 + 1) + 8
	copy(p[off:], []byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1})
	return p
}

func TestPayloadRejections(t *testing.T) {
	good, err := EncodeBatch(clientBatch())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"trailing byte":     append(bytes.Clone(good.Payload), 0),
		"truncated":         good.Payload[:len(good.Payload)-1],
		"truncated string":  {5, 'a'},
		"non-minimal count": {0, 0, 0x80, 0x00, 0},
		"non-minimal len":   {0x81, 0x00, 'a', 0, 0, 0},
		"varint overflow":   append(bytes.Repeat([]byte{0xFF}, 10), 0x01),
		"huge count":        {0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10, 0},
		"count > bytes":     append([]byte{0, 0, 2}, make([]byte, minJobRecordLen+1)...),
		"NaN energy":        nanBatch(),
		"invalid UTF-8":     {1, 0xFF, 0, 0, 0},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			b, err := Frame{Type: TypeBatch, Payload: p}.AsBatch()
			if !errors.Is(err, ErrPayload) {
				t.Fatalf("AsBatch = %+v, %v; want ErrPayload", b, err)
			}
		})
	}
	for name, p := range map[string][]byte{
		"trailing byte": {1, 'x', 0, 0, 0, 0},
		"truncated":     {1, 'x', 0, 0},
		"out of range":  append([]byte{1, 'x'}, bytes.Repeat([]byte{0x80}, 9)...),
	} {
		if _, err := (Frame{Type: TypeAck, Payload: p}).AsAck(); !errors.Is(err, ErrPayload) {
			t.Errorf("ack %s: err = %v, want ErrPayload", name, err)
		}
	}
	if _, err := (Frame{Type: TypeBatch, Payload: nanBatch()}).AsBatch(); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("NaN batch error = %v, want it named", err)
	}
}

// TestPayloadAllocs pins the codec's allocation counts on a client-
// shaped batch: encoding allocates the exact-size payload and nothing
// else; decoding allocates one buffer shared by every string field and
// the record slice. An ack encodes in one allocation and decodes in
// one.
func TestPayloadAllocs(t *testing.T) {
	b := clientBatch()
	f, err := EncodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	af, err := EncodeAck(Ack{BatchID: b.ID, Accepted: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"EncodeBatch", 1, func() { _, _ = EncodeBatch(b) }},
		{"AsBatch", 2, func() { _, _ = f.AsBatch() }},
		{"EncodeAck", 1, func() { _, _ = EncodeAck(Ack{BatchID: b.ID, Accepted: 4}) }},
		{"AsAck", 1, func() { _, _ = af.AsAck() }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
	if cap(f.Payload) != len(f.Payload) {
		t.Errorf("payload cap %d, len %d: encode buffer not presized", cap(f.Payload), len(f.Payload))
	}
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	sinkFrame Frame
	sinkBatch Batch
)

func BenchmarkBatchEncode(b *testing.B) {
	batch := clientBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := EncodeBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		sinkFrame = f
	}
}

func BenchmarkBatchDecode(b *testing.B) {
	f, err := EncodeBatch(clientBatch())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		got, err := f.AsBatch()
		if err != nil {
			b.Fatal(err)
		}
		sinkBatch = got
	}
}
