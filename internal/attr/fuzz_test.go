package attr

import (
	"bytes"
	"testing"
)

// FuzzDecodeVec is the native fuzz target for the attribute-vector
// decoder that every diffusion message goes through. A vector that
// decodes must re-encode to exactly the bytes it was decoded from: the
// wire format has one encoding per vector. Seed inputs live in
// testdata/fuzz/FuzzDecodeVec.
func FuzzDecodeVec(f *testing.F) {
	f.Add(Vec{
		ClassIsData(),
		StringAttr(KeyTask, IS, "detectAnimal"),
		Int32Attr(KeySequence, IS, 9),
	}.Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := DecodeVec(b)
		if err != nil {
			if v != nil || n != 0 {
				t.Fatalf("error %v with %d attributes and %d bytes consumed", err, len(v), n)
			}
			return
		}
		if n < vecHeaderSize || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if v.Size() != n {
			t.Fatalf("Size=%d, decoded from %d bytes", v.Size(), n)
		}
		if enc := v.Encode(); !bytes.Equal(enc, b[:n]) {
			t.Fatalf("re-encoded %x, decoded from %x", enc, b[:n])
		}
	})
}
