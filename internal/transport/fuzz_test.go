package transport

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame is the native fuzz target for the v2 transport header,
// with and without the trace extension. A frame that decodes must
// re-encode to a frame that decodes to the same fields and to the same
// bytes. The one exception is a trace flag with a zero flow: the encoder
// writes the extension only for a non-zero flow, so such a frame
// re-encodes without it and loses its hop count. Seed inputs live in
// testdata/fuzz/FuzzDecodeFrame.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(encodeFrame(kindData, 1, 2, 3, 0, []byte("payload")))
	f.Add(encodeFrame(kindReliable, 1, 2, 3, 4, nil))
	f.Add(encodeFrameTraced(kindData, 1, 2, 3, 0, 0x1234, 5, []byte("payload")))
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFrame(b)
		if err != nil {
			return
		}
		if fr.kind >= numKinds {
			t.Fatalf("decoded unknown kind %d", fr.kind)
		}
		enc := encodeFrameTraced(fr.kind, fr.from, fr.dst, fr.boot, fr.seq, fr.flow, fr.hop, fr.payload)
		again, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decoding %x: %v", enc, err)
		}
		if fr.flow == 0 {
			fr.hop = 0 // not carried without a flow
		}
		if again.kind != fr.kind || again.from != fr.from || again.dst != fr.dst || again.boot != fr.boot ||
			again.seq != fr.seq || again.flow != fr.flow || again.hop != fr.hop || !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("round trip changed %+v into %+v", fr, again)
		}
		if traced := b[2]&kindTraceFlag != 0; (!traced || fr.flow != 0) && !bytes.Equal(enc, b) {
			t.Fatalf("re-encoded %x, decoded from %x", enc, b)
		}
	})
}
