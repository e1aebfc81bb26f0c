package wire

import "sync"

// Pooled encode/read scratch buffers. Every hot path that moves a message —
// the TCP writer, the TCP reader, the in-proc wire-format round-trip —
// borrows a Buf, appends into it, and releases it once the bytes
// have been copied out (written to the socket, or decoded into structs). At
// steady state the pool serves every borrow without allocating, which is what
// takes the per-message cost of the codec to near zero.
//
// Ownership contract: between BorrowBuf and Release the caller owns b.B
// exclusively. Release hands the backing array back to the pool, so the
// caller must not retain or mutate any slice of b.B afterwards — the decoder
// upholds the same rule by never aliasing decoded messages into its input
// buffer (TestPoolDecodeNeverAliases locks this in).

// maxPooledBuf caps the capacity the pool retains. Frames larger than this
// (rare megabyte-range coalesced batches) are served normally but their
// backing arrays are dropped on Release instead of pinning the pool.
const maxPooledBuf = 1 << 20

// Buf is a pooled byte buffer. B is exported because every user is an
// append-style encoder: borrow, `b.B = append-result`, write, release.
type Buf struct {
	B []byte
}

var bufPool sync.Pool

// BorrowBuf returns an empty buffer from the pool (length 0, capacity
// whatever its previous life grew it to). Release it when done.
func BorrowBuf() *Buf {
	if v := bufPool.Get(); v != nil {
		b := v.(*Buf)
		b.B = b.B[:0]
		return b
	}
	return &Buf{B: make([]byte, 0, 4096)}
}

// Grow resizes the buffer to exactly n bytes (contents undefined) and returns
// it, reusing capacity when possible. It is the read-side companion to
// append-style encoding: size a frame body, then io.ReadFull into it.
func (b *Buf) Grow(n int) []byte {
	if cap(b.B) < n {
		b.B = make([]byte, n)
	}
	b.B = b.B[:n]
	return b.B
}

// Release returns the buffer to the pool. The caller must not touch b or any
// slice of b.B afterwards. Oversized buffers are dropped so one huge frame
// does not pin its backing array forever.
func (b *Buf) Release() {
	if b == nil || cap(b.B) > maxPooledBuf {
		return
	}
	bufPool.Put(b)
}
