package msg

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

var testCfg = types.Config{N: 4, F: 1, T: 1}

func testScheme() sigcrypto.Scheme { return sigcrypto.NewHMAC(testCfg.N, 7) }

func sampleProgressCert(s sigcrypto.Scheme, x types.Value, v types.View) *ProgressCert {
	d := CertAckDigest(ValueDigest(x), v)
	sigs := []sigcrypto.Signature{
		s.Signer(0).Sign(d),
		s.Signer(2).Sign(d),
	}
	return &ProgressCert{Value: x.Clone(), View: v, Sigs: sigs}
}

func sampleCommitCert(s sigcrypto.Scheme, x types.Value, v types.View) *CommitCert {
	d := AckDigest(ValueDigest(x), v)
	sigs := []sigcrypto.Signature{
		s.Signer(0).Sign(d),
		s.Signer(1).Sign(d),
		s.Signer(2).Sign(d),
	}
	return &CommitCert{Value: x.Clone(), View: v, Sigs: sigs}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf := Encode(m)
	if buf == nil {
		t.Fatal("encode returned nil")
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Kind(), err)
	}
	if out.Kind() != m.Kind() || out.InView() != m.InView() {
		t.Fatalf("kind/view mismatch after round trip: %s/%s vs %s/%s",
			out.Kind(), out.InView(), m.Kind(), m.InView())
	}
	// Re-encoding must be byte-identical (canonical encoding matters for
	// signatures).
	buf2 := Encode(out)
	if string(buf) != string(buf2) {
		t.Fatalf("%s: non-canonical encoding", m.Kind())
	}
	return out
}

// sampleMessages returns one or more well-formed messages of every kind;
// the round-trip test and the fuzz corpus both start from it.
func sampleMessages() []Message {
	s := testScheme()
	x := types.Value("value")
	pc := sampleProgressCert(s, x, 2)
	cc := sampleCommitCert(s, x, 2)
	d := ValueDigest(x)
	vote := VoteRecord{Value: x, View: 2, Cert: pc, Tau: s.Signer(2).Sign(ProposeDigest(x, 2)), CC: cc}
	sv := SignedVote{Voter: 1, Vote: vote, Phi: s.Signer(1).Sign(VoteDigest(vote, 3))}

	return []Message{
		&Propose{View: 1, X: x, Cert: nil, Tau: s.Signer(1).Sign(ProposeDigest(x, 1))},
		&Propose{View: 3, X: x, Cert: sampleProgressCert(s, x, 3), Tau: s.Signer(3).Sign(ProposeDigest(x, 3))},
		&Ack{View: 2, D: d},
		&AckSig{View: 2, D: d, Phi: s.Signer(0).Sign(AckDigest(d, 2))},
		&Vote{View: 3, SV: sv},
		&Vote{View: 3, SV: SignedVote{Voter: 0, Vote: NilVote(), Phi: s.Signer(0).Sign(VoteDigest(NilVote(), 3))}},
		&CertRequest{View: 3, X: x, Votes: []SignedVote{sv}},
		&CertAck{View: 3, D: d, Phi: s.Signer(2).Sign(CertAckDigest(d, 3))},
		&Commit{CC: *cc},
		&CommitDigest{View: cc.View, D: d, Sigs: cc.Sigs},
		&Wish{View: 9},
		&Raw{View: 4, Proto: ProtoPBFT, Sub: 2, X: x, Payload: []byte{1, 2, 3}},
		&Checkpoint{CP: sampleCheckpoint(), Phi: s.Signer(1).Sign(CheckpointDigest(sampleCheckpoint()))},
		&FetchState{From: 41},
		&StateSnapshot{},
		&StateSnapshot{
			HasSnap:  true,
			Snapshot: []byte("snapshot-bytes"),
			Cert:     *sampleCheckpointCert(s),
			Tail:     []TailDecision{{Slot: 17, CC: *cc}, {Slot: 18, CC: *cc}},
		},
		&Request{Client: "alice", Seq: 7, Op: []byte("op")},
		&Request{Client: "bob", Seq: 1, Op: nil, Group: 3},
		&Reply{Client: "alice", Seq: 7, Slot: 4, Replica: 2, Result: []byte("r"), Group: 1},
		&SnapshotChunk{Cert: *sampleCheckpointCert(s), Total: 10, Offset: 4, Data: []byte("chunk")},
		&WindowWish{View: 5, Lo: 3, Hi: 9},
		&WindowVote{View: 3, Entries: []WindowVoteEntry{{Slot: 2, SV: sv}, {Slot: 3, SV: sv}}},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	covered := make(map[Kind]bool)
	for _, m := range sampleMessages() {
		roundTrip(t, m)
		covered[m.Kind()] = true
	}
	for k := KindPropose; k <= KindCommitDigest; k++ {
		if !covered[k] {
			t.Errorf("no sample message of kind %s", k)
		}
	}
}

// TestDigestOnlyWireShapes pins the sizes the digest-only encodings exist
// for: an Ack or AckSig for a 4 KiB value stays under 128 bytes, a Commit
// carries the value's bytes exactly once, a CommitDigest not at all, and a
// digest of any other length is rejected.
func TestDigestOnlyWireShapes(t *testing.T) {
	s := testScheme()
	x := make(types.Value, 4096)
	for i := range x {
		x[i] = byte(i*7 + 1)
	}
	d := ValueDigest(x)
	for _, m := range []Message{
		&Ack{View: 3, D: d},
		&AckSig{View: 3, D: d, Phi: s.Signer(0).Sign(AckDigest(d, 3))},
		&CertAck{View: 3, D: d, Phi: s.Signer(0).Sign(CertAckDigest(d, 3))},
	} {
		if n := len(Encode(m)); n >= 128 {
			t.Errorf("%s for a 4 KiB value encodes in %d bytes, want < 128", m.Kind(), n)
		}
	}
	cc := sampleCommitCert(s, x, 3)
	buf := Encode(&Commit{CC: *cc})
	if n := bytes.Count(buf, x); n != 1 {
		t.Fatalf("commit carries the value %d times, want once", n)
	}
	if len(buf) >= 2*len(x) {
		t.Fatalf("commit encodes in %d bytes for a %d-byte value", len(buf), len(x))
	}
	// The digest form carries the certificate's signatures and no value.
	cd := &CommitDigest{View: cc.View, D: d, Sigs: cc.Sigs}
	if n := len(Encode(cd)); n >= 256 {
		t.Errorf("commitdigest for a 4 KiB value encodes in %d bytes, want < 256", n)
	}
	if got := cd.Cert(x); !got.VerifyDigest(s.Verifier(), quorum.New(testCfg), d) || !got.Value.Equal(x) {
		t.Error("certificate rebuilt from a commitdigest does not verify")
	}

	// A digest field of any length but 32 is malformed.
	for _, n := range []int{0, 31, 33} {
		for _, k := range []Kind{KindAck, KindCommitDigest} {
			w := wire.NewWriter(64)
			w.Uint8(uint8(k))
			w.Uvarint(3)
			w.BytesField(make([]byte, n))
			if k == KindCommitDigest {
				encodeSigs(w, cc.Sigs)
			}
			if _, err := Decode(w.Bytes()); err == nil {
				t.Errorf("%s with a %d-byte digest decoded", k, n)
			}
		}
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xEE}); err == nil {
		t.Fatal("expected error for unknown kind")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("expected error for empty buffer")
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf := Encode(&Wish{View: 1})
	if _, err := Decode(append(buf, 0)); err == nil {
		t.Fatal("expected error for trailing bytes")
	}
}

func TestDecodeNeverPanics(t *testing.T) {
	if err := quick.Check(func(garbage []byte) bool {
		_, _ = Decode(garbage)
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncations(t *testing.T) {
	// Every strict prefix of a valid encoding must fail to decode (no
	// message is a prefix of another — required for framing safety).
	s := testScheme()
	x := types.Value("v")
	cc := sampleCommitCert(s, x, 2)
	buf := Encode(&Commit{CC: *cc})
	for i := 0; i < len(buf); i++ {
		if _, err := Decode(buf[:i]); err == nil {
			t.Fatalf("prefix of length %d decoded successfully", i)
		}
	}
}

func TestProgressCertVerify(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()
	x := types.Value("x")

	pc := sampleProgressCert(s, x, 2)
	if !pc.Verify(ver, th) {
		t.Fatal("valid certificate rejected")
	}
	if !pc.VerifyFor(ver, th, x, 2) {
		t.Fatal("VerifyFor rejected matching (x, v)")
	}
	if pc.VerifyFor(ver, th, types.Value("y"), 2) {
		t.Fatal("certificate accepted for wrong value")
	}
	if pc.VerifyFor(ver, th, x, 3) {
		t.Fatal("certificate accepted for wrong view")
	}
	// View 1: nil certificate required, non-nil rejected.
	if !(*ProgressCert)(nil).VerifyFor(ver, th, x, 1) {
		t.Fatal("nil certificate must authorize view 1")
	}
	if pc.VerifyFor(ver, th, x, 1) {
		t.Fatal("non-nil certificate must not be required in view 1")
	}
	if (*ProgressCert)(nil).VerifyFor(ver, th, x, 2) {
		t.Fatal("nil certificate must not authorize view 2")
	}

	// Too few signatures.
	short := &ProgressCert{Value: x, View: 2, Sigs: pc.Sigs[:1]}
	if short.Verify(ver, th) {
		t.Fatal("certificate with f signatures accepted")
	}
	// Duplicate signers must not count twice.
	dup := &ProgressCert{Value: x, View: 2, Sigs: []sigcrypto.Signature{pc.Sigs[0], pc.Sigs[0]}}
	if dup.Verify(ver, th) {
		t.Fatal("duplicate signer counted twice")
	}
	// Wrong digest.
	bad := sampleProgressCert(s, types.Value("other"), 2)
	bad.Value = x
	if bad.Verify(ver, th) {
		t.Fatal("certificate over wrong digest accepted")
	}
}

func TestCommitCertVerify(t *testing.T) {
	s := testScheme()
	th := quorum.New(testCfg)
	ver := s.Verifier()
	x := types.Value("x")

	cc := sampleCommitCert(s, x, 2)
	if !cc.Verify(ver, th) {
		t.Fatal("valid commit certificate rejected")
	}
	short := &CommitCert{Value: x, View: 2, Sigs: cc.Sigs[:2]}
	if short.Verify(ver, th) {
		t.Fatal("commit certificate below ⌈(n+f+1)/2⌉ accepted")
	}
	var nilCC *CommitCert
	if nilCC.Verify(ver, th) {
		t.Fatal("nil commit certificate accepted")
	}
	if nilCC.Clone() != nil {
		t.Fatal("nil clone must stay nil")
	}
}

func TestDigestDomainSeparation(t *testing.T) {
	x := types.Value("x")
	v := types.View(3)
	digests := [][]byte{
		ProposeDigest(x, v),
		AckDigest(ValueDigest(x), v),
		CertAckDigest(ValueDigest(x), v),
		VoteDigest(NilVote(), v),
		CheckpointDigest(types.Checkpoint{Slot: 3, StateHash: x}),
	}
	for i := range digests {
		for j := i + 1; j < len(digests); j++ {
			if string(digests[i]) == string(digests[j]) {
				t.Fatalf("digest domains %d and %d collide", i, j)
			}
		}
	}
	if string(ProposeDigest(x, 1)) == string(ProposeDigest(x, 2)) {
		t.Fatal("digest ignores view")
	}
	if string(ProposeDigest(types.Value("a"), v)) == string(ProposeDigest(types.Value("b"), v)) {
		t.Fatal("digest ignores value")
	}
}
