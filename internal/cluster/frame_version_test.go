package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"stcam/internal/wire"
)

// encodeV1Frame builds a frame in the original (pre-trace) layout by hand,
// so the compatibility tests do not depend on the current encoder.
func encodeV1Frame(t testing.TB, reqID uint64, flags byte, payload any) []byte {
	t.Helper()
	kind := wire.KindOf(payload)
	body, err := wire.Marshal(kind, payload)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 4+rpcHeaderLen, 4+rpcHeaderLen+len(body))
	binary.BigEndian.PutUint32(frame[0:4], uint32(rpcHeaderLen+len(body)))
	binary.BigEndian.PutUint64(frame[4:12], reqID)
	frame[12] = flags
	frame[13] = byte(kind)
	return append(frame, body...)
}

// TestFrameV1Decode: a v1 frame (no trace field) must decode on the current
// reader as an untraced call — old senders keep working.
func TestFrameV1Decode(t *testing.T) {
	msg := &wire.Heartbeat{Node: "w7", Seq: 3, Load: 0.25, Stored: 10, Cameras: 2}
	old := encodeV1Frame(t, 99, 0, msg)
	hdr, env, err := readRPCFrame(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.reqID != 99 || hdr.flags != 0 || hdr.traceID != 0 || hdr.pri != PriorityNone || hdr.tenant != "" {
		t.Fatalf("header = %+v, want reqID 99, zero flags/trace/QoS", hdr)
	}
	if !reflect.DeepEqual(env.payload, msg) {
		t.Fatalf("payload mismatch: %#v", env.payload)
	}
}

// TestFrameUntracedIsV1: an untraced send must emit bytes identical to the
// v1 layout — new senders stay readable by old receivers.
func TestFrameUntracedIsV1(t *testing.T) {
	msg := &wire.TrackStop{TrackID: 11}
	got, err := appendRPCFrame(nil, 5, flagResponse, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeV1Frame(t, 5, flagResponse, msg)
	if !bytes.Equal(got, want) {
		t.Fatalf("untraced frame differs from v1 layout:\n got  %x\n want %x", got, want)
	}
}

// TestQuickFrameHeaderRoundTrip is the versioned-header property: for any
// (reqID, flags, traceID), encode→decode returns the same header, with the
// trace bit tracking whether a trace ID rode along.
func TestQuickFrameHeaderRoundTrip(t *testing.T) {
	prop := func(reqID uint64, flags byte, traceID uint64, seq uint64) bool {
		flags &= flagResponse // the encoder owns every other bit
		msg := &wire.Heartbeat{Node: "w1", Seq: seq}
		frame, err := appendRPCFrame(nil, reqID, flags, traceID, msg)
		if err != nil {
			return false
		}
		hdr, env, err := readRPCFrame(bytes.NewReader(frame))
		if err != nil {
			return false
		}
		wantFlags := flags
		if traceID != 0 {
			wantFlags |= flagTrace
		}
		return hdr.reqID == reqID && hdr.flags == wantFlags && hdr.traceID == traceID &&
			reflect.DeepEqual(env.payload, msg)
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFrameTraceTruncated: flagTrace with fewer than 8 payload bytes must
// error, not panic or misparse.
func TestFrameTraceTruncated(t *testing.T) {
	frame, err := appendRPCFrame(nil, 1, 0, 0xabcdef, &wire.TrackStop{TrackID: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the length to claim the frame ends inside the trace field.
	cut := frame[:4+rpcHeaderLen+4]
	trunc := append([]byte(nil), cut...)
	binary.BigEndian.PutUint32(trunc[0:4], uint32(len(trunc)-4))
	if _, _, err := readRPCFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated trace field decoded without error")
	}
}

// TestFrameQoSRoundTrip: priority and tenant tags survive the frame, both
// alone and combined with a trace ID, and untagged frames carry no QoS field.
func TestFrameQoSRoundTrip(t *testing.T) {
	msg := &wire.CountQuery{QueryID: 4}
	cases := []struct {
		traceID uint64
		pri     Priority
		tenant  string
	}{
		{0, PriorityBackground, ""},
		{0, PriorityNone, "acme"},
		{0, PriorityInteractive, "acme"},
		{0xfeed, PriorityControl, "tenant-with-a-longer-name"},
	}
	for _, tc := range cases {
		frame, _, err := appendRPCFrameFull(nil, 7, 0, tc.traceID, tc.pri, tc.tenant, msg)
		if err != nil {
			t.Fatal(err)
		}
		hdr, env, err := readRPCFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("case %+v: %v", tc, err)
		}
		if hdr.flags&flagQoS == 0 {
			t.Fatalf("case %+v: flagQoS not set", tc)
		}
		if hdr.reqID != 7 || hdr.traceID != tc.traceID || hdr.pri != tc.pri || hdr.tenant != tc.tenant {
			t.Fatalf("case %+v: header round trip changed: %+v", tc, hdr)
		}
		if !reflect.DeepEqual(env.payload, msg) {
			t.Fatalf("case %+v: payload mismatch: %#v", tc, env.payload)
		}
	}
}

// TestFrameQoSUntaggedIsV1: a call with no priority and no tenant must emit
// bytes identical to the pre-QoS layout — old receivers keep decoding new
// senders.
func TestFrameQoSUntaggedIsV1(t *testing.T) {
	msg := &wire.TrackStop{TrackID: 11}
	got, _, err := appendRPCFrameFull(nil, 5, 0, 0, PriorityNone, "", msg)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeV1Frame(t, 5, 0, msg)
	if !bytes.Equal(got, want) {
		t.Fatalf("untagged frame differs from v1 layout:\n got  %x\n want %x", got, want)
	}
}

// TestFrameQoSTruncated: flagQoS with a tenant length pointing past the end
// of the frame must error, not panic or misparse.
func TestFrameQoSTruncated(t *testing.T) {
	frame, _, err := appendRPCFrameFull(nil, 1, 0, 0, PriorityBackground, "acme", &wire.TrackStop{TrackID: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the tenant bytes: [pri][len=4]["ac..."] with only 2 tenant
	// bytes present.
	cut := frame[:4+rpcHeaderLen+2+2]
	trunc := append([]byte(nil), cut...)
	binary.BigEndian.PutUint32(trunc[0:4], uint32(len(trunc)-4))
	if _, _, err := readRPCFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated QoS field decoded without error")
	}
	// And a tenant over the one-byte length bound must be refused at encode.
	long := string(make([]byte, maxTenantLen+1))
	if _, _, err := appendRPCFrameFull(nil, 1, 0, 0, PriorityNone, long, &wire.TrackStop{TrackID: 2}); err == nil {
		t.Fatal("oversized tenant encoded without error")
	}
}

// TestFrameUnknownFlagsRejected: a frame setting a flag bit this build does
// not read — bit2, once the payload-format tag, or any bit above the QoS
// tag — must fail cleanly, never decode as if the bit were clear. The
// encoder refuses such bits from its caller, so it never emits what the
// reader rejects.
func TestFrameUnknownFlagsRejected(t *testing.T) {
	msg := &wire.Heartbeat{Node: "w1", Seq: 9}
	for _, bit := range []byte{0x04, 0x10, 0x20, 0x40, 0x80} {
		frame := encodeV1Frame(t, 3, bit, msg)
		if _, _, err := readRPCFrame(bytes.NewReader(frame)); err == nil {
			t.Errorf("frame with flag 0x%02x decoded without error", bit)
		}
		if _, err := appendRPCFrame(nil, 3, bit, 0, msg); err == nil {
			t.Errorf("encoder accepted caller flag 0x%02x", bit)
		}
	}
	for _, bit := range []byte{flagTrace, flagQoS} {
		if _, err := appendRPCFrame(nil, 3, bit, 0, msg); err == nil {
			t.Errorf("encoder accepted tag bit 0x%02x from its caller", bit)
		}
	}
}

// TestFrameOversizeRefused: a frame over MaxFrameSize is refused with
// ErrFrameTooLarge on both sides — the encoder leaves buf as it was, and
// the reader rejects a declared length past the cap (or shorter than the
// header) before allocating for it.
func TestFrameOversizeRefused(t *testing.T) {
	over := &wire.IngestBatch{Observations: []wire.Observation{{
		ObsID:   1,
		Camera:  1,
		Feature: make([]float32, MaxFrameSize/4+1),
	}}}
	pre := []byte{1, 2, 3}
	out, err := appendRPCFrame(pre, 1, 0, 0, over)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize batch: got %v, want ErrFrameTooLarge", err)
	}
	if !bytes.Equal(out, pre) {
		t.Fatalf("refused frame left %d bytes, want the original %d", len(out), len(pre))
	}
	for _, declared := range []uint32{MaxFrameSize + 1, 0xFFFFFFFF, rpcHeaderLen - 1, 0} {
		frame := binary.BigEndian.AppendUint32(nil, declared)
		frame = append(frame, make([]byte, rpcHeaderLen)...)
		if _, _, err := readRPCFrame(bytes.NewReader(frame)); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("declared length %d: got %v, want ErrFrameTooLarge", declared, err)
		}
	}
}
