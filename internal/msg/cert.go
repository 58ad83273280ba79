package msg

import (
	"repro/internal/quorum"
	"repro/internal/sigcrypto"
	"repro/internal/types"
	"repro/internal/wire"
)

// ProgressCert is the progress certificate b̂σ of Section 3.2: CertQuorum
// (f+1) signatures from distinct processes over (CertAck, H(x), v), proving
// that at least one correct process verified that value x is safe in view v.
//
// A nil *ProgressCert plays the role of ⊥: it accompanies proposals in view
// 1, where any value is safe by convention.
type ProgressCert struct {
	Value types.Value
	View  types.View
	Sigs  []sigcrypto.Signature
}

// Verify reports whether the certificate proves that c.Value is safe in
// c.View: it must carry CertQuorum valid signatures from distinct signers
// over CertAckDigest(ValueDigest(c.Value), c.View).
func (c *ProgressCert) Verify(ver sigcrypto.Verifier, th quorum.Thresholds) bool {
	if c == nil {
		return false
	}
	if c.View < 1 {
		return false
	}
	d := CertAckDigest(ValueDigest(c.Value), c.View)
	return sigcrypto.VerifyDistinct(ver, d, c.Sigs, th.CertQuorum())
}

// VerifyFor reports whether the certificate (possibly nil) authorizes
// proposing value x in view v: in view 1 a nil certificate is sufficient; in
// any later view the certificate must be valid and match (x, v) exactly.
func (c *ProgressCert) VerifyFor(ver sigcrypto.Verifier, th quorum.Thresholds, x types.Value, v types.View) bool {
	if v == 1 {
		return c == nil
	}
	if c == nil {
		return false
	}
	if c.View != v || !c.Value.Equal(x) {
		return false
	}
	return c.Verify(ver, th)
}

// Clone returns an independent deep copy (nil-safe).
func (c *ProgressCert) Clone() *ProgressCert {
	if c == nil {
		return nil
	}
	out := &ProgressCert{
		Value: c.Value.Clone(),
		View:  c.View,
		Sigs:  make([]sigcrypto.Signature, len(c.Sigs)),
	}
	for i, s := range c.Sigs {
		out.Sigs[i] = s.Clone()
	}
	return out
}

// EncodedSize returns the byte size of the certificate's encoding; the
// certificate-size experiment (T3) reports this.
func (c *ProgressCert) EncodedSize() int {
	w := wire.NewWriter(64)
	encodeProgressCertPtr(w, c)
	return w.Len()
}

func (c *ProgressCert) encode(w *wire.Writer) {
	w.BytesField(c.Value)
	w.Uvarint(uint64(c.View))
	encodeSigs(w, c.Sigs)
}

func decodeProgressCert(r *wire.Reader) ProgressCert {
	var c ProgressCert
	c.Value = r.BytesField()
	c.View = types.View(r.Uvarint())
	c.Sigs = decodeSigs(r)
	return c
}

// encodeProgressCertPtr encodes an optional certificate with a presence
// byte, used both on the wire and inside signed vote digests.
func encodeProgressCertPtr(w *wire.Writer, c *ProgressCert) {
	if c == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	c.encode(w)
}

func decodeProgressCertPtr(r *wire.Reader) *ProgressCert {
	if !r.Bool() {
		return nil
	}
	c := decodeProgressCert(r)
	if r.Err() != nil {
		return nil
	}
	return &c
}

// CommitCert is the slow-path commit certificate of Appendix A.1:
// CommitQuorum (⌈(n+f+1)/2⌉) signatures from distinct processes over
// (ack, H(x), v). Two commit certificates for different values in the same view
// cannot exist (Lemma A.2).
type CommitCert struct {
	Value types.Value
	View  types.View
	Sigs  []sigcrypto.Signature
}

// Verify reports whether the certificate carries CommitQuorum valid
// signatures from distinct signers over AckDigest(ValueDigest(c.Value),
// c.View).
func (c *CommitCert) Verify(ver sigcrypto.Verifier, th quorum.Thresholds) bool {
	if c == nil {
		return false
	}
	return c.VerifyDigest(ver, th, ValueDigest(c.Value))
}

// VerifyDigest is Verify for a caller that already holds
// d = ValueDigest(c.Value), so a value is hashed once however many
// certificates carry it. Passing any other digest voids the check.
func (c *CommitCert) VerifyDigest(ver sigcrypto.Verifier, th quorum.Thresholds, d Digest) bool {
	if c == nil || c.View < 1 {
		return false
	}
	return sigcrypto.VerifyDistinct(ver, AckDigest(d, c.View), c.Sigs, th.CommitQuorum())
}

// Clone returns an independent deep copy (nil-safe).
func (c *CommitCert) Clone() *CommitCert {
	if c == nil {
		return nil
	}
	out := &CommitCert{
		Value: c.Value.Clone(),
		View:  c.View,
		Sigs:  make([]sigcrypto.Signature, len(c.Sigs)),
	}
	for i, s := range c.Sigs {
		out.Sigs[i] = s.Clone()
	}
	return out
}

func (c *CommitCert) encode(w *wire.Writer) {
	w.BytesField(c.Value)
	w.Uvarint(uint64(c.View))
	encodeSigs(w, c.Sigs)
}

func decodeCommitCert(r *wire.Reader) CommitCert {
	var c CommitCert
	c.Value = r.BytesField()
	c.View = types.View(r.Uvarint())
	c.Sigs = decodeSigs(r)
	return c
}

func encodeCommitCertPtr(w *wire.Writer, c *CommitCert) {
	if c == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	c.encode(w)
}

func decodeCommitCertPtr(r *wire.Reader) *CommitCert {
	if !r.Bool() {
		return nil
	}
	c := decodeCommitCert(r)
	if r.Err() != nil {
		return nil
	}
	return &c
}

func encodeSigs(w *wire.Writer, sigs []sigcrypto.Signature) {
	w.Uvarint(uint64(len(sigs)))
	for _, s := range sigs {
		w.Int32(int32(s.Signer))
		w.BytesField(s.Bytes)
	}
}

func decodeSigs(r *wire.Reader) []sigcrypto.Signature {
	n := r.SliceLen()
	if r.Err() != nil {
		return nil
	}
	sigs := make([]sigcrypto.Signature, 0, n)
	for i := 0; i < n; i++ {
		var s sigcrypto.Signature
		s.Signer = types.ProcessID(r.Int32())
		s.Bytes = r.BytesField()
		sigs = append(sigs, s)
	}
	return sigs
}
