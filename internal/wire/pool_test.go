package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Pool safety layer. These tests run under -race in CI (make check): if the
// pool ever hands one buffer to two holders, the concurrent writes are a
// detector hit as well as a byte-level mismatch.

// poolTestBatch builds a deterministic per-lane batch so each goroutine knows
// exactly which bytes its frames must contain.
func poolTestBatch(lane, iter int) *IngestBatch {
	return &IngestBatch{
		Camera: uint32(lane),
		Source: fmt.Sprintf("lane-%d", lane),
		Seq:    uint64(iter),
		Observations: []Observation{
			{ObsID: uint64(lane)<<32 | uint64(iter), Camera: uint32(lane), Feature: []float32{float32(lane), float32(iter)}},
			{ObsID: uint64(iter), TrueID: uint64(lane)},
		},
	}
}

// TestPoolDecodeNeverAliases: nothing a decode returns may alias the input
// buffer — that is what makes releasing read buffers immediately after
// Unmarshal safe. The test scribbles over the buffer after decoding and
// checks the decoded message still re-encodes to the pristine bytes.
func TestPoolDecodeNeverAliases(t *testing.T) {
	msg := poolTestBatch(1, 2)
	b := BorrowBuf()
	enc, err := AppendMarshal(b.B[:0], KindIngestBatch, msg)
	if err != nil {
		t.Fatal(err)
	}
	b.B = enc
	pristine := append([]byte(nil), enc...)

	got, err := Unmarshal(KindIngestBatch, enc)
	if err != nil {
		t.Fatal(err)
	}
	into := &IngestBatch{}
	if err := UnmarshalInto(KindIngestBatch, enc, into); err != nil {
		t.Fatal(err)
	}
	// Clobber the buffer the way a pooled reuse would.
	for i := range enc {
		enc[i] = 0xFF
	}
	b.Release()
	for name, v := range map[string]any{"value": got, "into": into} {
		re, err := Marshal(KindIngestBatch, v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, pristine) {
			t.Fatalf("%s decode aliased the input buffer: re-encode changed after clobber", name)
		}
	}
}

// TestPoolMutateAfterReleaseIsIsolated: a holder that (illegally) mutates its
// buffer after release must not corrupt frames built by the next borrower —
// because the next borrower overwrites from length 0, not because the bytes
// happen to survive. This pins the borrow/release protocol: every frame's
// correctness depends only on its own append, never on buffer history.
func TestPoolMutateAfterReleaseIsIsolated(t *testing.T) {
	msgA := poolTestBatch(7, 1)
	wantA, err := Marshal(KindIngestBatch, msgA)
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 100; iter++ {
		b1 := BorrowBuf()
		frame1, err := AppendMarshal(b1.B[:0], KindIngestBatch, msgA)
		if err != nil {
			t.Fatal(err)
		}
		b1.B = frame1
		b1.Release()
		// Misuse: scribble over the released buffer's bytes.
		for i := range frame1 {
			frame1[i] = byte(iter)
		}
		// The next borrow may or may not return the same backing array;
		// either way the frame it builds must be exactly right.
		b2 := BorrowBuf()
		frame2, err := AppendMarshal(b2.B[:0], KindIngestBatch, msgA)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame2, wantA) {
			t.Fatalf("iter %d: frame built after post-release mutation is corrupt", iter)
		}
		b2.B = frame2
		b2.Release()
	}
}

// TestPoolConcurrentEncodeDecode: many goroutines hammer borrow → encode →
// decode → release concurrently; every frame must contain exactly its lane's
// bytes and decode back to its lane's message (into a lane-reused struct).
// Cross-lane corruption means the pool aliased a live buffer. Run with -race.
func TestPoolConcurrentEncodeDecode(t *testing.T) {
	const lanes = 8
	const iters = 400
	var wg sync.WaitGroup
	errs := make(chan error, lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			reused := &IngestBatch{}
			for iter := 0; iter < iters; iter++ {
				want := poolTestBatch(lane, iter)
				wantBytes, err := Marshal(KindIngestBatch, want)
				if err != nil {
					errs <- err
					return
				}
				b := BorrowBuf()
				frame, err := AppendMarshal(b.B[:0], KindIngestBatch, want)
				if err != nil {
					errs <- err
					return
				}
				b.B = frame
				if !bytes.Equal(frame, wantBytes) {
					errs <- fmt.Errorf("lane %d iter %d: pooled encode corrupt", lane, iter)
					return
				}
				if err := UnmarshalInto(KindIngestBatch, frame, reused); err != nil {
					errs <- err
					return
				}
				b.Release()
				if !reflect.DeepEqual(reused, want) {
					errs <- fmt.Errorf("lane %d iter %d: decode-into corrupt after pooled round-trip", lane, iter)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPoolServesBorrows: a borrow/append/release loop runs on recycled
// buffers. A pool that served nothing would allocate a Buf and its 4 KiB
// array on every borrow; GC and the race detector drop some pooled buffers,
// so the bound is deliberately loose.
func TestPoolServesBorrows(t *testing.T) {
	frame := []byte("pooled frame")
	allocs := testing.AllocsPerRun(1000, func() {
		b := BorrowBuf()
		b.B = append(b.B, frame...)
		b.Release()
	})
	if allocs >= 1 {
		t.Fatalf("pool is not recycling: %.2f allocations per borrow", allocs)
	}
}

// TestPoolOversizedBuffersDropped: a frame past maxPooledBuf is served but
// its buffer must not come back from the pool (one huge frame must not pin
// megabytes forever). Verified via the Release fast-path being a no-op —
// the buffer object itself never reappears.
func TestPoolOversizedBuffersDropped(t *testing.T) {
	b := BorrowBuf()
	b.Grow(maxPooledBuf + 1)
	huge := b
	b.Release()
	// Drain up to a generous number of borrows: the huge *Buf must not be
	// handed back out (its capacity survives only if Release pooled it).
	var out []*Buf
	for i := 0; i < 64; i++ {
		nb := BorrowBuf()
		if nb == huge {
			t.Fatal("oversized buffer returned to the pool")
		}
		out = append(out, nb)
	}
	for _, nb := range out {
		nb.Release()
	}
}
