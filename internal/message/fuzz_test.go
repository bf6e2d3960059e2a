package message

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUnmarshalNeverPanics throws random byte soup at the wire decoder:
// link layers deliver whatever survives the radio, and the diffusion core
// must shrug off anything that is not a well-formed message.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	f := func(seed int64, n uint16) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, int(n)%512)
		r.Read(b)
		m, err := Unmarshal(b)
		// Either a clean error or a structurally valid message.
		if err != nil {
			return m == nil
		}
		return m.Class.Valid()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestBitFlippedMessages corrupts valid encodings bit by bit: decoding
// must never panic, and any message that does decode must be structurally
// valid.
func TestBitFlippedMessages(t *testing.T) {
	base := sample().Marshal()
	for i := 0; i < len(base); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), base...)
			mut[i] ^= 1 << bit
			m, err := Unmarshal(mut)
			if err == nil && !m.Class.Valid() {
				t.Fatalf("byte %d bit %d: invalid class decoded", i, bit)
			}
		}
	}
}

// TestTruncationsNeverPanic decodes every prefix of a valid encoding.
func TestTruncationsNeverPanic(t *testing.T) {
	base := sample().Marshal()
	for i := 0; i <= len(base); i++ {
		_, _ = Unmarshal(base[:i])
	}
}

// FuzzUnmarshal is the native fuzz target for the wire decoder the
// simulator and the live stack share. Whatever decodes must be
// structurally valid, and its encoding must be a fixed point: decoding it
// again yields the same message and the same bytes. Seed inputs live in
// testdata/fuzz/FuzzUnmarshal.
func FuzzUnmarshal(f *testing.F) {
	f.Add(sample().Marshal())
	traced := sample()
	traced.Flow = 0x1234
	f.Add(traced.Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			if m != nil {
				t.Fatalf("error %v with a non-nil message", err)
			}
			return
		}
		if !m.Class.Valid() {
			t.Fatalf("decoded invalid class %d", m.Class)
		}
		enc := m.Marshal()
		if len(enc) != m.Size() {
			t.Fatalf("Marshal wrote %d bytes, Size says %d", len(enc), m.Size())
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("re-decoding %x: %v", enc, err)
		}
		if again.Class != m.Class || again.ID != m.ID || again.PrevHop != m.PrevHop ||
			again.NextHop != m.NextHop || again.HopCount != m.HopCount || again.Flow != m.Flow ||
			!again.Attrs.Equal(m.Attrs) {
			t.Fatalf("round trip changed %v into %v", m, again)
		}
		if !bytes.Equal(again.Marshal(), enc) {
			t.Fatalf("encoding is not a fixed point: %x then %x", enc, again.Marshal())
		}
	})
}
