package server

// Size-classed frame-buffer pooling for the multiplexed transport. Every
// payload on the serving hot path — request encode on the coordinator,
// request/response payloads on the server, response decode back on the
// coordinator — lives in a pooled buffer: getBuf on the way in, putBuf
// after the last byte is consumed. Buffers are filed into power-of-four-ish
// size classes so a burst of large frames cannot pin a pool full of huge
// allocations behind tiny requests.
//
// Ownership discipline (the aliasing rules the -race tests pin):
//   - the writer loop owns a request payload from enqueue to the end of its
//     Write call and repools it there — callers that need to retry must
//     re-encode into a fresh buffer, never reuse the enqueued one;
//   - a reader loop owns each inbound payload until it hands it to exactly
//     one completion, which repools it after decoding.

import "sync"

// bufClasses are the pooled capacity classes. The smallest covers a ping or
// apply ack, the middle ones typical versions, the largest a maxValueBytes
// value with headroom; anything larger than the top class is allocated
// directly and dropped on release.
var bufClasses = [...]int{256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 2 << 20}

var bufPools [len(bufClasses)]sync.Pool

// bufHdrPool recirculates the *[]byte boxes the class pools store. Putting
// a bare &b into a sync.Pool heap-allocates a fresh slice-header box on
// every release (the box is discarded again on Get), which at several
// get/put cycles per serving op was the single largest allocator on the
// whole hot path. Recycling the boxes makes a warm get/put cycle
// allocation-free.
var bufHdrPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a buffer with len n and cap of at least n, pooled when a
// size class covers it.
func getBuf(n int) []byte {
	for i, c := range bufClasses {
		if n <= c {
			if v := bufPools[i].Get(); v != nil {
				hp := v.(*[]byte)
				b := *hp
				*hp = nil
				bufHdrPool.Put(hp)
				return b[:n]
			}
			return make([]byte, n, c)
		}
	}
	return make([]byte, n)
}

// growBuf returns b with room for n more bytes. A handler's answer that
// outgrows its pooled scratch moves to a pooled buffer of a larger class
// (at least double, so a growing answer copies O(len) bytes in all), and
// the old one goes back to its pool — so the answer always ends in a
// pooled array, which its owner releases (answerBuf).
func growBuf(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	nb := getBuf(max(len(b)+n, 2*cap(b)))[:len(b)]
	copy(nb, b)
	putBuf(b)
	return nb
}

// answerBuf returns the array to release once a handler's answer resp is
// consumed, given the scratch buf the handler was handed. An answer still
// starting in buf releases buf. Any other answer grew through growBuf,
// which already repooled buf, or is a fresh slice nothing else holds (an
// error, a control-plane reply): the answer's own array is released, and
// in the fresh case buf is left to the collector.
func answerBuf(buf, resp []byte) []byte {
	if cap(resp) == 0 || &resp[:1][0] == &buf[:1][0] {
		return buf
	}
	return resp
}

// putBuf files b back into the pool of the largest class its capacity
// covers. Buffers below the smallest class (including nil) and above the
// largest are dropped. Callers must not touch b after putBuf.
func putBuf(b []byte) {
	c := cap(b)
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] {
			hp := bufHdrPool.Get().(*[]byte)
			*hp = b[:0]
			bufPools[i].Put(hp)
			return
		}
	}
}
