package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"

	"stcam/internal/wire"
)

// FuzzReadRPCFrame throws arbitrary bytes at the TCP frame reader: it must
// either decode a frame or return an error — never panic, never over-allocate
// past the frame-size cap — and every valid frame it does decode must
// round-trip back to identical bytes. The seeds cover v1 frames (no tags),
// v2 traced frames (flagTrace + 8-byte trace id) and v4 QoS frames
// (flagQoS + priority + tenant), plus frames setting a flag bit the reader
// must reject: 0x04 (a former v3 payload-format tag), 0x10 and 0x80.
func FuzzReadRPCFrame(f *testing.F) {
	// Seed with a valid frame, its truncations, and classic corruptions.
	valid, err := appendRPCFrame(nil, 42, 1, 0, &wire.Heartbeat{Node: "w1", Seq: 9, Load: 1.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// The same message as a v2 traced frame.
	traced, err := appendRPCFrame(nil, 42, 1, 0xdeadbeefcafef00d, &wire.Heartbeat{Node: "w1", Seq: 9, Load: 1.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(traced)
	f.Add(traced[:16]) // flagTrace set but trace field truncated
	// The same message as a v4 QoS-tagged frame (priority + tenant).
	tagged, _, err := appendRPCFrameFull(nil, 42, 1, 0xdeadbeefcafef00d,
		PriorityBackground, "acme", &wire.Heartbeat{Node: "w1", Seq: 9, Load: 1.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tagged)
	f.Add(tagged[:24]) // flagQoS set but tenant bytes truncated
	// A sequenced multi-camera ingest batch (the coalesced pipeline shape)
	// and a clock-only tick exercise the Source/Seq encoding paths.
	multiCam, err := appendRPCFrame(nil, 43, 0, 7, &wire.IngestBatch{
		Source: "ingest-1",
		Seq:    7,
		Observations: []wire.Observation{
			{ObsID: 1, Camera: 3, Feature: []float32{0.25, -0.5}},
			{ObsID: 2, Camera: 9},
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multiCam)
	clockOnly, err := appendRPCFrame(nil, 44, 0, 0, &wire.IngestBatch{Source: "ingest-2", Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clockOnly)
	f.Add(valid[:4])             // header only
	f.Add(valid[:len(valid)-2])  // truncated body
	f.Add([]byte{})              // empty
	f.Add([]byte{0, 0, 0, 0, 0}) // zero-length frame
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, 0xFFFFFFFF) // oversized declared length
	f.Add(huge)
	flipped := append([]byte(nil), valid...)
	flipped[13] = 200 // unknown message kind
	f.Add(flipped)
	// Unknown flag bits fail closed.
	for _, bit := range []byte{0x04, 0x10, 0x80} {
		unknown := append([]byte(nil), valid...)
		unknown[12] |= bit
		f.Add(unknown)
	}
	// A former v3 frame: flag 0x04 and a payload-format byte (1) after the
	// kind byte.
	v3 := append([]byte(nil), valid[:4+rpcHeaderLen]...)
	v3[12] |= 0x04
	v3 = append(append(v3, 1), valid[4+rpcHeaderLen:]...)
	binary.BigEndian.PutUint32(v3, uint32(len(v3)-4))
	f.Add(v3)
	badLen := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(badLen, uint32(len(valid))) // length > actual payload
	f.Add(badLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, env, err := readRPCFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if hdr.flags&^flagsKnown != 0 {
			t.Fatalf("frame with unknown flags 0x%02x decoded", hdr.flags)
		}
		// Whatever decoded must re-encode to a frame that decodes equal:
		// the reader and writer agree on the format. The re-encoder picks
		// the frame version from the trace ID and QoS tags, so flags may
		// gain or lose flagTrace/flagQoS when the input set a bit
		// inconsistently (e.g. a traced frame whose trace field decoded to
		// 0, or a QoS frame tagged PriorityNone with an empty tenant); mask
		// them out of the header comparison and compare the values directly.
		frame, _, err := appendRPCFrameFull(nil, hdr.reqID, hdr.flags&flagResponse, hdr.traceID, hdr.pri, hdr.tenant, env.payload)
		if err != nil {
			t.Fatalf("decoded payload %T does not re-encode: %v", env.payload, err)
		}
		hdr2, env2, err := readRPCFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		const ownedBits = flagTrace | flagQoS
		if hdr2.reqID != hdr.reqID || hdr2.flags&^byte(ownedBits) != hdr.flags&^byte(ownedBits) ||
			hdr2.traceID != hdr.traceID || hdr2.pri != hdr.pri || hdr2.tenant != hdr.tenant || wire.KindOf(env2.payload) != wire.KindOf(env.payload) {
			t.Fatalf("round trip changed header: (%+v,%T) vs (%+v,%T)", hdr, env.payload, hdr2, env2.payload)
		}
		// Compare payloads by their encoding, not reflect.DeepEqual: NaN
		// floats round-trip byte-identically but are never reflect-equal.
		b1, err1 := wire.Marshal(wire.KindOf(env.payload), env.payload)
		b2, err2 := wire.Marshal(wire.KindOf(env2.payload), env2.payload)
		if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
			t.Fatalf("round trip changed payload:\n got  %#v\n want %#v", env2.payload, env.payload)
		}
	})
}
