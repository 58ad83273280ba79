package msg

import (
	"bytes"
	"testing"
)

// The request/reply codecs must be canonical: every byte string that decodes
// successfully must re-encode to exactly itself. Commands are deduplicated
// both by encoded bytes (the pending queue) and by decoded (client, seq)
// (the session table); a non-canonical encoding would let the two disagree,
// and would let a Byzantine sender mint distinct byte strings for one
// logical request.

// FuzzDecodeRequest forces the request kind byte and asserts the
// decode→encode round trip is the identity on accepted inputs.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(Encode(&Request{Client: "alice", Seq: 1, Op: []byte("op")}))
	f.Add(Encode(&Request{Client: "b", Seq: 1 << 40, Op: nil}))
	f.Add([]byte{byte(KindRequest)})
	f.Add([]byte{byte(KindRequest), 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := append([]byte(nil), data...)
		buf[0] = byte(KindRequest)
		m, err := Decode(buf)
		if err != nil {
			return
		}
		req, ok := m.(*Request)
		if !ok {
			t.Fatalf("request kind decoded to %T", m)
		}
		if !bytes.Equal(Encode(req), buf) {
			t.Fatalf("non-canonical request encoding accepted: %x", buf)
		}
	})
}

// FuzzDecodeReply is the same property for replies.
func FuzzDecodeReply(f *testing.F) {
	f.Add(Encode(&Reply{Client: "alice", Seq: 9, Slot: 4, Replica: 2, Result: []byte("r")}))
	f.Add([]byte{byte(KindReply)})
	f.Add([]byte{byte(KindReply), 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		buf := append([]byte(nil), data...)
		buf[0] = byte(KindReply)
		m, err := Decode(buf)
		if err != nil {
			return
		}
		rep, ok := m.(*Reply)
		if !ok {
			t.Fatalf("reply kind decoded to %T", m)
		}
		if !bytes.Equal(Encode(rep), buf) {
			t.Fatalf("non-canonical reply encoding accepted: %x", buf)
		}
	})
}

// FuzzDecodeMessage is the same property for the whole codec: for arbitrary
// bytes Decode never panics, and every input it accepts re-encodes to
// exactly itself, whatever its kind. The corpus seeds one encoding of every
// kind (sampleMessages), including the digest-only acks and endorsements,
// the single-copy Commit and its digest-only form.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(Encode(m))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(KindAck), 1, 31})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if out := Encode(m); !bytes.Equal(out, data) {
			t.Fatalf("%s: accepted %x re-encodes to %x", m.Kind(), data, out)
		}
	})
}
