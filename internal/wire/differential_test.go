package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Differential codec suite: the value-returning paths (Marshal/Unmarshal) and
// the pooled/reuse paths (AppendMarshal into a dirty buffer, UnmarshalInto
// a dirty struct) must be indistinguishable — identical bytes out, identical
// structs in — for every message kind, including float bit patterns
// (NaN/±Inf) and the nil-vs-empty slice edge.

// encodeBoth encodes msg through both paths and fails unless the bytes are
// identical. The append path runs against a buffer pre-filled with garbage so
// any dependence on prior buffer contents shows up as a byte diff.
func encodeBoth(t *testing.T, kind MsgKind, msg any) []byte {
	t.Helper()
	old, err := Marshal(kind, msg)
	if err != nil {
		t.Fatalf("Marshal %v: %v", kind, err)
	}
	dirty := make([]byte, 0, len(old)+64)
	dirty = dirty[:cap(dirty)]
	for i := range dirty {
		dirty[i] = 0xAA
	}
	dirty = dirty[:0]
	nw, err := AppendMarshal(dirty, kind, msg)
	if err != nil {
		t.Fatalf("AppendMarshal %v: %v", kind, err)
	}
	if !bytes.Equal(old, nw) {
		t.Fatalf("%v: append path bytes differ from value path:\n old %x\n new %x", kind, old, nw)
	}
	// Appending after a prefix must preserve it and emit the same payload.
	pre := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	withPre, err := AppendMarshal(pre, kind, msg)
	if err != nil {
		t.Fatalf("AppendMarshal with prefix %v: %v", kind, err)
	}
	if !bytes.Equal(withPre[:4], pre) || !bytes.Equal(withPre[4:], old) {
		t.Fatalf("%v: prefixed append corrupted prefix or payload", kind)
	}
	return old
}

// decodeBoth decodes body through both paths — value-returning and
// decode-into a struct pre-dirtied by decoding junk of the same kind — and
// fails unless they agree. Agreement is checked by re-encoded bytes (exact
// for NaN, which DeepEqual rejects) and, when wantDeepEqual, by DeepEqual
// too (catching nil-vs-empty and aliasing mistakes byte comparison can't).
func decodeBoth(t *testing.T, kind MsgKind, body []byte, dirtyWith []byte, wantDeepEqual bool) (any, any) {
	t.Helper()
	vOld, err := Unmarshal(kind, body)
	if err != nil {
		t.Fatalf("Unmarshal %v: %v", kind, err)
	}
	vNew := newMessage(kind)
	if dirtyWith != nil {
		if err := UnmarshalInto(kind, dirtyWith, vNew); err != nil {
			t.Fatalf("UnmarshalInto (dirtying) %v: %v", kind, err)
		}
	}
	if err := UnmarshalInto(kind, body, vNew); err != nil {
		t.Fatalf("UnmarshalInto %v: %v", kind, err)
	}
	reOld, err := Marshal(kind, vOld)
	if err != nil {
		t.Fatalf("re-marshal old %v: %v", kind, err)
	}
	reNew, err := Marshal(kind, vNew)
	if err != nil {
		t.Fatalf("re-marshal new %v: %v", kind, err)
	}
	if !bytes.Equal(reOld, reNew) {
		t.Fatalf("%v: decode-into disagrees with value decode:\n old %x\n new %x", kind, reOld, reNew)
	}
	if wantDeepEqual && !reflect.DeepEqual(vOld, vNew) {
		t.Fatalf("%v: decode-into struct differs from value decode:\n old %#v\n new %#v", kind, vOld, vNew)
	}
	return vOld, vNew
}

// TestDifferentialEveryKind runs every golden fixture — field-rich payloads
// for all message kinds, including the NaN/±Inf observation batch — through
// both encode paths and both decode paths, with the decode-into struct
// dirtied by a second fixture pass first.
func TestDifferentialEveryKind(t *testing.T) {
	for _, fx := range goldenFixtures() {
		body := encodeBoth(t, fx.kind, fx.msg)
		// Maps make DeepEqual safe but their iteration order on the wire is
		// not canonical only for >1 entries; fixtures keep ≤1, so both
		// oracles apply. NaN fields reject DeepEqual by definition.
		decodeBoth(t, fx.kind, body, body, !fixtureHasNaN(fx.kind))
	}
}

// fixtureHasNaN reports whether a golden fixture carries NaN floats (which
// makes reflect.DeepEqual unusable for that kind).
func fixtureHasNaN(kind MsgKind) bool {
	return kind == KindIngestBatch // observation feature carries NaN/±Inf
}

// TestDifferentialFloatEdges: NaN and ±Inf must round-trip bit-exactly and
// identically on both paths wherever the vocabulary carries floats.
func TestDifferentialFloatEdges(t *testing.T) {
	nan32 := float32(math.NaN())
	msgs := []any{
		&IngestBatch{Camera: 1, Source: "s", Seq: 2, Observations: []Observation{
			{ObsID: 1, Feature: []float32{nan32, float32(math.Inf(1)), float32(math.Inf(-1)), 0}},
		}},
		&Heartbeat{Node: "w", Seq: 1, Load: math.NaN()},
		&KNNQuery{QueryID: 1, MaxDist2: math.Inf(1)},
		&KNNResult{QueryID: 1, Records: []KNNRecord{{Dist2: math.NaN()}}},
		&HeatmapQuery{QueryID: 2, CellSize: math.Inf(-1)},
	}
	for _, m := range msgs {
		kind := KindOf(m)
		body := encodeBoth(t, kind, m)
		decodeBoth(t, kind, body, nil, false)
		// The encoding itself must preserve the exact bit pattern: decode and
		// re-encode reproduces the input bytes.
		v, err := Unmarshal(kind, body)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Marshal(kind, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, re) {
			t.Fatalf("%v: NaN/Inf bit pattern not preserved:\n in  %x\n out %x", kind, body, re)
		}
	}
}

// TestDifferentialNilVsEmpty: empty and nil slices encode identically (length
// 0) and both decode paths agree on the canonical result: nil.
func TestDifferentialNilVsEmpty(t *testing.T) {
	withEmpty := &IngestBatch{Camera: 3, Source: "s", Observations: []Observation{}}
	withNil := &IngestBatch{Camera: 3, Source: "s", Observations: nil}
	be := encodeBoth(t, KindIngestBatch, withEmpty)
	bn := encodeBoth(t, KindIngestBatch, withNil)
	if !bytes.Equal(be, bn) {
		t.Fatalf("empty and nil slices encode differently:\n empty %x\n nil   %x", be, bn)
	}
	vOld, vNew := decodeBoth(t, KindIngestBatch, be, nil, true)
	if vOld.(*IngestBatch).Observations != nil || vNew.(*IngestBatch).Observations != nil {
		t.Fatal("zero-length slice must decode to nil on both paths")
	}
	// A dirty struct holding a previous non-empty slice must also land on nil
	// when the wire says zero elements — stale elements must not survive.
	reused := &IngestBatch{}
	full, err := Marshal(KindIngestBatch, &IngestBatch{Observations: []Observation{{ObsID: 9, Feature: []float32{1, 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalInto(KindIngestBatch, full, reused); err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalInto(KindIngestBatch, be, reused); err != nil {
		t.Fatal(err)
	}
	if reused.Observations != nil {
		t.Fatalf("reused struct kept stale observations: %#v", reused.Observations)
	}

	// Same property for the optional summary: a heartbeat without one must
	// nil out a reused struct's previous summary.
	hb := &Heartbeat{Node: "w", Seq: 1}
	hbFull, err := Marshal(KindHeartbeat, &Heartbeat{Node: "w", Summary: &WorkerSummary{Epoch: 1, Records: 2}})
	if err != nil {
		t.Fatal(err)
	}
	hbEmpty, err := Marshal(KindHeartbeat, hb)
	if err != nil {
		t.Fatal(err)
	}
	reusedHB := &Heartbeat{}
	if err := UnmarshalInto(KindHeartbeat, hbFull, reusedHB); err != nil {
		t.Fatal(err)
	}
	if reusedHB.Summary == nil {
		t.Fatal("expected a summary after decoding one")
	}
	if err := UnmarshalInto(KindHeartbeat, hbEmpty, reusedHB); err != nil {
		t.Fatal(err)
	}
	if reusedHB.Summary != nil {
		t.Fatal("reused heartbeat kept a stale summary")
	}
}

// TestQuickDifferentialReuse: randomized back-to-back decodes into the same
// struct. Decoding message A then message B into one struct must leave it
// exactly as a fresh decode of B — no stale elements, lengths, or strings
// leaking through the capacity reuse, in either grow or shrink direction.
func TestQuickDifferentialReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		a := &IngestBatch{Camera: rng.Uint32(), Source: randSource(rng), Seq: rng.Uint64(), FrameTime: randTime(rng)}
		b := &IngestBatch{Camera: rng.Uint32(), Source: randSource(rng), Seq: rng.Uint64(), FrameTime: randTime(rng)}
		for i := 0; i < rng.Intn(12); i++ {
			a.Observations = append(a.Observations, randObservation(rng))
		}
		for i := 0; i < rng.Intn(12); i++ {
			b.Observations = append(b.Observations, randObservation(rng))
		}
		ba, err := Marshal(KindIngestBatch, a)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := Marshal(KindIngestBatch, b)
		if err != nil {
			t.Fatal(err)
		}
		reused := &IngestBatch{}
		if err := UnmarshalInto(KindIngestBatch, ba, reused); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalInto(KindIngestBatch, bb, reused); err != nil {
			t.Fatal(err)
		}
		fresh, err := Unmarshal(KindIngestBatch, bb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("iter %d: reused decode differs from fresh decode:\n reused %#v\n fresh  %#v", iter, reused, fresh)
		}
	}

	// Same property on the control-plane stream, whose records nest three
	// levels of reusable slices (cameras, assignment entries, replica lists,
	// feature vectors).
	for iter := 0; iter < 100; iter++ {
		mk := func() *Replicate {
			m := &Replicate{Leader: NodeID(randSource(rng)), LeaderAddr: randSource(rng),
				Epoch: rng.Uint64(), Commit: rng.Uint64(), FromIndex: rng.Uint64()}
			for i := 0; i < rng.Intn(5); i++ {
				r := ControlRecord{Index: rng.Uint64(), Epoch: rng.Uint64(), Op: ControlOp(rng.Intn(6))}
				for j := 0; j < rng.Intn(3); j++ {
					r.Cameras = append(r.Cameras, CameraInfo{ID: rng.Uint32(), Orient: rng.Float64()})
				}
				for j := 0; j < rng.Intn(3); j++ {
					ae := AssignEntry{Camera: rng.Uint32(), Node: NodeID(randSource(rng))}
					for k := 0; k < rng.Intn(3); k++ {
						ae.Replicas = append(ae.Replicas, NodeID(randSource(rng)))
					}
					r.Assign = append(r.Assign, ae)
				}
				r.Track.TrackID = rng.Uint64()
				r.Track.Feature = randFeature(rng)
				r.Track.LastSeen = randTime(rng)
				r.Member.Node = NodeID(randSource(rng))
				m.Records = append(m.Records, r)
			}
			return m
		}
		ba, err := Marshal(KindReplicate, mk())
		if err != nil {
			t.Fatal(err)
		}
		second := mk()
		bb, err := Marshal(KindReplicate, second)
		if err != nil {
			t.Fatal(err)
		}
		reused := &Replicate{}
		if err := UnmarshalInto(KindReplicate, ba, reused); err != nil {
			t.Fatal(err)
		}
		if err := UnmarshalInto(KindReplicate, bb, reused); err != nil {
			t.Fatal(err)
		}
		fresh, err := Unmarshal(KindReplicate, bb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("iter %d: reused replicate decode differs from fresh", iter)
		}
	}
}

// TestDifferentialStringReuse: the compare-before-assign string optimization
// must keep reused strings correct when the wire value changes.
func TestDifferentialStringReuse(t *testing.T) {
	mk := func(src, addr string) []byte {
		b, err := Marshal(KindRegister, &Register{Node: NodeID(src), Addr: addr, Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	reused := &Register{}
	for _, step := range []struct{ node, addr string }{
		{"w1", "host-a:9000"},
		{"w1", "host-a:9000"}, // unchanged: must not flip
		{"w2", "host-b:9000"}, // changed: must update
		{"", ""},              // emptied: must clear
		{"w2-long-name-that-shrinks", "x"},
		{"w", "x"}, // shrink again
	} {
		if err := UnmarshalInto(KindRegister, mk(step.node, step.addr), reused); err != nil {
			t.Fatal(err)
		}
		if string(reused.Node) != step.node || reused.Addr != step.addr {
			t.Fatalf("string reuse corrupted decode: got (%q,%q), want (%q,%q)",
				reused.Node, reused.Addr, step.node, step.addr)
		}
	}
}

// TestUnmarshalIntoKindMismatch: handing a struct that does not match the
// kind must error, never mis-decode.
func TestUnmarshalIntoKindMismatch(t *testing.T) {
	body, err := Marshal(KindTrackStop, &TrackStop{TrackID: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := UnmarshalInto(KindTrackStop, body, &Heartbeat{}); err == nil {
		t.Fatal("kind/struct mismatch decoded without error")
	}
	if err := UnmarshalInto(KindHeartbeat, body, &TrackStop{}); err == nil {
		t.Fatal("kind/struct mismatch decoded without error")
	}
}
