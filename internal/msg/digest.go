// Package msg defines every message exchanged by the protocol of
// "Revisiting Optimal Resilience of Fast Byzantine Consensus" (PODC 2021):
// propose/ack for the fast path (Section 3.1), ack signatures and Commit for
// the slow path (Appendix A.1), vote/CertReq/CertAck for the view change
// (Section 3.2), plus the certificates those messages carry and the
// deterministic byte digests each signature covers.
//
// A value travels in full only where a receiver may need it: the Propose,
// the certificates (and so the vote records and a Commit to a peer that
// may lack the value), and the CertRequest. Acks, ack signatures and
// endorsements name the value by its Digest, and their signatures cover
// that digest, so a quorum of them certifies exactly the value that hashes
// to it (collision resistance of SHA-256 is assumed, as for the signatures
// themselves). A Commit to a peer that has acked the value travels as a
// CommitDigest: the peer holds the value and rebuilds the certificate.
package msg

import (
	"crypto/sha256"

	"repro/internal/types"
	"repro/internal/wire"
)

// Digest is the SHA-256 of a value: the form in which acks, ack signatures
// and endorsements reference it.
type Digest [sha256.Size]byte

// ValueDigest returns H(x).
func ValueDigest(x types.Value) Digest { return sha256.Sum256(x) }

func encodeDigest(w *wire.Writer, d Digest) { w.BytesField(d[:]) }

// decodeDigest reads a digest field; any length but sha256.Size is
// malformed.
func decodeDigest(r *wire.Reader) Digest {
	var d Digest
	b := r.BytesField()
	if r.Err() == nil && len(b) != len(d) {
		r.Fail(wire.ErrOverflow)
	}
	copy(d[:], b)
	return d
}

// Signing domains. Every signature in the protocol covers a domain tag
// followed by a canonical encoding of the signed fields, so that a signature
// produced for one purpose can never be replayed for another.
const (
	domainPropose byte = 1 // τ  = sign_p((propose, x, v))
	domainAck     byte = 2 // φ_ack = sign_q((ack, H(x), v))
	domainCertAck byte = 3 // φ_ca = sign_q((CertAck, H(x), v))
	domainVote    byte = 4 // φ_vote = sign_q((vote, vote_q, v))
	// domainCheckpoint covers SMR checkpoints: sign_q((ckpt, slot, stateHash)).
	domainCheckpoint byte = 5
)

func digest(domain byte, v types.View, x []byte) []byte {
	w := wire.NewWriter(16 + len(x))
	w.Uint8(domain)
	w.Uvarint(uint64(v))
	w.BytesField(x)
	return w.Bytes()
}

// ProposeDigest is the byte string signed by the leader of view v when
// proposing value x: τ = sign((propose, x, v)).
func ProposeDigest(x types.Value, v types.View) []byte {
	return digest(domainPropose, v, x)
}

// AckDigest is the byte string covered by slow-path ack signatures for the
// value with digest d: φ_ack = sign((ack, H(x), v)). CommitQuorum such
// signatures form a commit certificate.
func AckDigest(d Digest, v types.View) []byte {
	return digest(domainAck, v, d[:])
}

// CertAckDigest is the byte string covered by CertAck signatures for the
// value with digest d: φ_ca = sign((CertAck, H(x), v)). CertQuorum (f+1)
// such signatures form a progress certificate.
func CertAckDigest(d Digest, v types.View) []byte {
	return digest(domainCertAck, v, d[:])
}

// CheckpointDigest is the byte string covered by checkpoint signatures:
// sign((ckpt, slot, stateHash)). CertQuorum (f+1) such signatures from
// distinct replicas form a CheckpointCert.
func CheckpointDigest(cp types.Checkpoint) []byte {
	w := wire.NewWriter(16 + len(cp.StateHash))
	w.Uint8(domainCheckpoint)
	w.Uvarint(cp.Slot)
	w.BytesField(cp.StateHash)
	return w.Bytes()
}

// VoteDigest is the byte string covered by a vote signature:
// φ_vote = sign((vote, vote_q, v)), where v is the view the vote is cast
// for and vote_q is the voter's current vote record.
func VoteDigest(vote VoteRecord, v types.View) []byte {
	w := wire.NewWriter(64)
	w.Uint8(domainVote)
	w.Uvarint(uint64(v))
	vote.encode(w)
	return w.Bytes()
}
