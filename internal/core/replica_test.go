package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/types"
)

// newReplica builds a started replica (view 1 entered) for process id.
func (f *fixture) newReplica(t *testing.T, id types.ProcessID, input types.Value) *core.Replica {
	t.Helper()
	r, err := core.NewReplica(f.cfg, id, f.scheme.Signer(id), f.verifier(), input)
	if err != nil {
		t.Fatal(err)
	}
	r.Init()
	return r
}

// countKind counts actions carrying messages of one kind.
func countKind(actions []core.Action, k msg.Kind) int {
	n := 0
	for _, a := range actions {
		switch act := a.(type) {
		case core.SendAction:
			if act.Msg.Kind() == k {
				n++
			}
		case core.BroadcastAction:
			if act.Msg.Kind() == k {
				n++
			}
		}
	}
	return n
}

func decisions(actions []core.Action) []types.Decision {
	var out []types.Decision
	for _, a := range actions {
		if d, ok := a.(core.DecideAction); ok {
			out = append(out, d.Decision)
		}
	}
	return out
}

func TestNewReplicaRejectsInvalidConfig(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 20)
	if _, err := core.NewReplica(types.Config{N: 3, F: 1, T: 1}, 0, f.scheme.Signer(0), f.verifier(), nil); err == nil {
		t.Fatal("expected config error")
	}
	if _, err := core.NewReplica(f.cfg, 99, f.scheme.Signer(0), f.verifier(), nil); err == nil {
		t.Fatal("expected id error")
	}
}

func TestLeaderProposesOwnInputInViewOne(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 21)
	leader := types.View(1).Leader(f.cfg.N)
	r, err := core.NewReplica(f.cfg, leader, f.scheme.Signer(leader), f.verifier(), types.Value("mine"))
	if err != nil {
		t.Fatal(err)
	}
	actions := r.Init()
	if countKind(actions, msg.KindPropose) != 1 {
		t.Fatal("view-1 leader must propose at Init")
	}
	// The leader adopts and acknowledges its own proposal.
	if countKind(actions, msg.KindAck) != 1 || countKind(actions, msg.KindAckSig) != 1 {
		t.Fatal("leader must ack its own proposal")
	}
	vote := r.CurrentVote()
	if vote.Nil || !vote.Value.Equal(types.Value("mine")) || vote.View != 1 {
		t.Fatalf("leader vote not adopted: %+v", vote)
	}
}

func TestReplicaAcksValidProposalOnce(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 22)
	leader := types.View(1).Leader(f.cfg.N)
	var follower types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		if types.ProcessID(i) != leader {
			follower = types.ProcessID(i)
			break
		}
	}
	r := f.newReplica(t, follower, types.Value("other"))
	x := types.Value("x")
	prop := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, 1))}
	actions := r.Deliver(leader, prop)
	if countKind(actions, msg.KindAck) != 1 {
		t.Fatal("valid proposal must be acknowledged")
	}
	// A second proposal in the same view — even identical — is not re-acked.
	if countKind(r.Deliver(leader, prop), msg.KindAck) != 0 {
		t.Fatal("second proposal acknowledged")
	}
	// An equivocating second value is ignored too.
	y := types.Value("y")
	prop2 := &msg.Propose{View: 1, X: y, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(y, 1))}
	if countKind(r.Deliver(leader, prop2), msg.KindAck) != 0 {
		t.Fatal("equivocating proposal acknowledged")
	}
}

func TestReplicaRejectsForgedProposals(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 23)
	leader := types.View(1).Leader(f.cfg.N)
	var follower, outsider types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		pid := types.ProcessID(i)
		if pid == leader {
			continue
		}
		if follower == 0 && pid != 0 {
			follower = pid
			continue
		}
		outsider = pid
	}
	r := f.newReplica(t, follower, nil)
	x := types.Value("x")

	// τ signed by a non-leader.
	forged := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(outsider).Sign(msg.ProposeDigest(x, 1))}
	if countKind(r.Deliver(outsider, forged), msg.KindAck) != 0 {
		t.Fatal("proposal with non-leader τ acknowledged")
	}
	// Correct τ but sent by the wrong process (replay by another channel).
	replay := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, 1))}
	if countKind(r.Deliver(outsider, replay), msg.KindAck) != 0 {
		t.Fatal("proposal relayed by non-leader acknowledged")
	}
	// View-2 proposal without a progress certificate.
	r2 := f.newReplica(t, follower, nil)
	r2.EnterView(2)
	leader2 := types.View(2).Leader(f.cfg.N)
	noCert := &msg.Propose{View: 2, X: x, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r2.Deliver(leader2, noCert), msg.KindAck) != 0 {
		t.Fatal("view-2 proposal without certificate acknowledged")
	}
	// View-2 proposal with a certificate for a different value.
	wrongCert := f.progressCert(types.Value("other"), 2)
	mismatch := &msg.Propose{View: 2, X: x, Cert: wrongCert, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r2.Deliver(leader2, mismatch), msg.KindAck) != 0 {
		t.Fatal("view-2 proposal with mismatched certificate acknowledged")
	}
	// View-2 proposal with a valid certificate is accepted.
	okCert := f.progressCert(x, 2)
	good := &msg.Propose{View: 2, X: x, Cert: okCert, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r2.Deliver(leader2, good), msg.KindAck) != 1 {
		t.Fatal("valid view-2 proposal rejected")
	}
}

// proposal builds leader(1)'s signed view-1 proposal of x.
func (f *fixture) proposal(x types.Value) *msg.Propose {
	return &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(types.View(1).Leader(f.cfg.N)).Sign(msg.ProposeDigest(x, 1))}
}

func TestFastDecisionRequiresFastQuorum(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 24) // n=7, fast quorum 6
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	ack := &msg.Ack{View: 1, D: msg.ValueDigest(x)}
	// Accepting the proposal gives the replica the value and its own ack.
	decided := decisions(r.Deliver(types.View(1).Leader(f.cfg.N), f.proposal(x)))
	for i := 1; i <= 4; i++ {
		decided = append(decided, decisions(r.Deliver(types.ProcessID(i), ack))...)
	}
	if len(decided) != 0 {
		t.Fatal("decided below the fast quorum")
	}
	// Duplicate acks must not help.
	for i := 0; i <= 4; i++ {
		decided = append(decided, decisions(r.Deliver(types.ProcessID(i), ack))...)
	}
	if len(decided) != 0 {
		t.Fatal("duplicate acks counted twice")
	}
	decided = append(decided, decisions(r.Deliver(5, ack))...)
	if len(decided) != 1 {
		t.Fatalf("expected decision at fast quorum, got %d", len(decided))
	}
	if decided[0].Path != types.FastPath || !decided[0].Value.Equal(x) {
		t.Fatalf("unexpected decision %+v", decided[0])
	}
	// At most one decision per process.
	if len(decisions(r.Deliver(6, ack))) != 0 {
		t.Fatal("second decision emitted")
	}
}

// TestFastQuorumWaitsForUnseenValue: acks name the value by digest, so a
// replica that collects a fast quorum before the proposal reaches it holds
// the decision until a value hashing to the digest arrives — and then
// decides it on the fast path.
func TestFastQuorumWaitsForUnseenValue(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 33) // n=4, fast quorum 3
	leader := types.View(1).Leader(f.cfg.N)
	follower := (leader + 1) % types.ProcessID(f.cfg.N)
	r := f.newReplica(t, follower, nil)
	x := types.Value("x")
	ack := &msg.Ack{View: 1, D: msg.ValueDigest(x)}
	var decided []types.Decision
	for i := 0; i < f.cfg.N; i++ {
		if p := types.ProcessID(i); p != follower {
			decided = append(decided, decisions(r.Deliver(p, ack))...)
		}
	}
	if len(decided) != 0 {
		t.Fatal("decided a value the replica has never seen")
	}
	// A proposal of another value (an equivocating leader's) is not it.
	y := types.Value("y")
	if len(decisions(r.Deliver(leader, f.proposal(y)))) != 0 {
		t.Fatal("decided on a value that does not match the acked digest")
	}
	// Neither is a Commit whose certificate value does not hash to the
	// digest its signatures (and the acks) cover, from any number of
	// senders.
	forged := &msg.Commit{CC: *f.commitCert(x, 1)}
	forged.CC.Value = y
	for i := 0; i < f.cfg.N; i++ {
		if len(decisions(r.Deliver(types.ProcessID(i), forged))) != 0 {
			t.Fatal("decided through a certificate whose value does not match its digest")
		}
	}
	// The acked value arrives late: it is decided, on the fast path.
	r2 := f.newReplica(t, follower, nil)
	for i := 0; i < f.cfg.N; i++ {
		if p := types.ProcessID(i); p != follower {
			r2.Deliver(p, ack)
		}
	}
	decided = decisions(r2.Deliver(leader, f.proposal(x)))
	if len(decided) != 1 || decided[0].Path != types.FastPath || !decided[0].Value.Equal(x) || decided[0].View != 1 {
		t.Fatalf("late proposal: want one fast decision of x, got %+v", decided)
	}
	// So does a commit certificate carrying it, after the replica acked y.
	r3 := f.newReplica(t, follower, nil)
	r3.Deliver(leader, f.proposal(y))
	for i := 0; i < f.cfg.N; i++ {
		if p := types.ProcessID(i); p != follower {
			r3.Deliver(p, ack)
		}
	}
	decided = decisions(r3.Deliver(leader, &msg.Commit{CC: *f.commitCert(x, 1)}))
	if len(decided) != 1 || decided[0].Path != types.FastPath || !decided[0].Value.Equal(x) {
		t.Fatalf("commit-supplied value: want one fast decision of x, got %+v", decided)
	}
}

// commitSends returns, per receiver, the kind of the Commit a replica sent.
func commitSends(t *testing.T, actions []core.Action) map[types.ProcessID]msg.Kind {
	t.Helper()
	out := make(map[types.ProcessID]msg.Kind)
	for _, a := range actions {
		act, ok := a.(core.SendAction)
		if !ok || (act.Msg.Kind() != msg.KindCommit && act.Msg.Kind() != msg.KindCommitDigest) {
			continue
		}
		if _, dup := out[act.To]; dup {
			t.Fatalf("two Commits to %v", act.To)
		}
		out[act.To] = act.Msg.Kind()
	}
	return out
}

func TestSlowPathCommitAssembly(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 25) // n=7, commit quorum 5
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	h := msg.ValueDigest(x)
	d := msg.AckDigest(h, 1)
	r.Deliver(types.View(1).Leader(f.cfg.N), f.proposal(x))
	var acts []core.Action
	for i := 1; i <= 5; i++ {
		pid := types.ProcessID(i)
		acts = append(acts, r.Deliver(pid, &msg.AckSig{View: 1, D: h, Phi: f.scheme.Signer(pid).Sign(d)})...)
	}
	// One full Commit sent to each peer (a 1-byte value has no smaller
	// digest form), none to itself, and no broadcast.
	sent := commitSends(t, acts)
	if _, toSelf := sent[0]; toSelf || len(sent) != f.cfg.N-1 || countKind(acts, msg.KindCommit) != f.cfg.N-1 {
		t.Fatalf("expected one Commit send to each of the %d peers, got %v", f.cfg.N-1, sent)
	}
	// Forged ack signatures must not count.
	r2 := f.newReplica(t, 0, nil)
	for i := 1; i <= 5; i++ {
		pid := types.ProcessID(i)
		forged := &msg.AckSig{View: 1, D: h, Phi: f.scheme.Signer(0).Sign(d)}
		if countKind(r2.Deliver(pid, forged), msg.KindCommit) != 0 {
			t.Fatal("forged ack signature produced a commit")
		}
	}
}

// TestCommitDigestToPeersHoldingValue: a replica that forms a commit
// certificate sends the digest-only form to each peer whose Ack or AckSig
// for the value arrived, and the full certificate to a peer that showed
// nothing. A value no longer than its digest goes in full to everyone.
func TestCommitDigestToPeersHoldingValue(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 34) // n=7, commit quorum 5
	leader := types.View(1).Leader(f.cfg.N)
	const self, silent = types.ProcessID(0), types.ProcessID(6)
	for _, tc := range []struct {
		size   int
		digest bool
	}{{4096, true}, {33, true}, {32, false}, {1, false}} {
		x := make(types.Value, tc.size)
		for i := range x {
			x[i] = byte(i + tc.size)
		}
		h := msg.ValueDigest(x)
		r := f.newReplica(t, self, nil)
		r.Deliver(leader, f.proposal(x))
		// Peer 5 acks (fast-path Ack only); peers 1..4 send ack signatures,
		// which with the replica's own complete the commit quorum.
		r.Deliver(5, &msg.Ack{View: 1, D: h})
		var acts []core.Action
		for p := types.ProcessID(1); p <= 4; p++ {
			acts = append(acts, r.Deliver(p, &msg.AckSig{View: 1, D: h, Phi: f.scheme.Signer(p).Sign(msg.AckDigest(h, 1))})...)
		}
		sent := commitSends(t, acts)
		if len(sent) != f.cfg.N-1 {
			t.Fatalf("%d-byte value: Commits to %v, want every peer once", tc.size, sent)
		}
		want := msg.KindCommit
		if tc.digest {
			want = msg.KindCommitDigest
		}
		for p := types.ProcessID(1); p <= 5; p++ {
			if sent[p] != want {
				t.Errorf("%d-byte value: peer %v that holds it got %s, want %s", tc.size, p, sent[p], want)
			}
		}
		if sent[silent] != msg.KindCommit {
			t.Errorf("%d-byte value: silent peer got %s, want the full commit", tc.size, sent[silent])
		}
		for _, a := range acts {
			if sa, ok := a.(core.SendAction); ok && sa.Msg.Kind() == msg.KindCommitDigest {
				cd := sa.Msg.(*msg.CommitDigest)
				if cd.D != h || !cd.Cert(x).Verify(f.verifier(), f.th) {
					t.Fatalf("digest-only commit to %v does not rebuild a valid certificate", sa.To)
				}
			}
		}
	}
}

// TestCommitDigestWaitsForValue: digest-only Commits count toward the
// commit quorum of a replica that never saw the value, but it decides only
// once a value hashing to the digest arrives, and then on the slow path
// with the full certificate rebuilt. A value with another digest, and
// digest-only Commits with forged or too few signatures, decide nothing.
func TestCommitDigestWaitsForValue(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 35) // n=7, commit quorum 5
	leader := types.View(1).Leader(f.cfg.N)
	const self = types.ProcessID(0)
	x := types.Value("a value longer than the thirty-two bytes of its digest")
	y := types.Value("another value, proposed by an equivocating leader")
	cc := f.commitCert(x, 1)
	cd := &msg.CommitDigest{View: 1, D: msg.ValueDigest(x), Sigs: cc.Sigs}
	quorumOf := func(r *core.Replica, m msg.Message) []types.Decision {
		var out []types.Decision
		for p := types.ProcessID(1); p <= 5; p++ {
			out = append(out, decisions(r.Deliver(p, m))...)
		}
		return out
	}

	r := f.newReplica(t, self, nil)
	if d := quorumOf(r, cd); len(d) != 0 {
		t.Fatalf("decided on digest-only commits alone: %+v", d)
	}
	if d := decisions(r.Deliver(leader, f.proposal(y))); len(d) != 0 {
		t.Fatalf("decided on a value that does not hash to the digest: %+v", d)
	}
	// The late value completes the parked decision: the proposal of x in a
	// view the replica already acked in is not acked, only supplied.
	d := decisions(r.Deliver(leader, f.proposal(x)))
	if len(d) != 1 || d[0].Path != types.SlowPath || !d[0].Value.Equal(x) || d[0].View != 1 {
		t.Fatalf("late value: want one slow decision of x, got %+v", d)
	}
	if got := r.DecisionCert(); got == nil || !got.Value.Equal(x) || !got.Verify(f.verifier(), f.th) {
		t.Fatalf("no valid certificate rebuilt for the decision: %+v", got)
	}

	// A full Commit supplies the value too and completes the quorum.
	r2 := f.newReplica(t, self, nil)
	for p := types.ProcessID(1); p <= 4; p++ {
		if len(decisions(r2.Deliver(p, cd))) != 0 {
			t.Fatal("decided below the commit quorum")
		}
	}
	d = decisions(r2.Deliver(5, &msg.Commit{CC: *cc}))
	if len(d) != 1 || d[0].Path != types.SlowPath || !d[0].Value.Equal(x) {
		t.Fatalf("full commit completing the quorum: want one slow decision of x, got %+v", d)
	}

	// Forged or short signature sets do not count, before or after the
	// value is known.
	forged := &msg.CommitDigest{View: 1, D: cd.D, Sigs: make([]sigcrypto.Signature, len(cc.Sigs))}
	for i, sig := range cc.Sigs {
		forged.Sigs[i] = f.scheme.Signer(self).Sign(msg.AckDigest(cd.D, 1))
		forged.Sigs[i].Signer = sig.Signer
	}
	short := &msg.CommitDigest{View: 1, D: cd.D, Sigs: cc.Sigs[:f.th.CommitQuorum()-1]}
	for _, bad := range []*msg.CommitDigest{forged, short} {
		r3 := f.newReplica(t, self, nil)
		quorumOf(r3, bad)
		if d := decisions(r3.Deliver(leader, f.proposal(x))); len(d) != 0 {
			t.Fatalf("decided through invalid digest-only commits: %+v", d)
		}
		if d := quorumOf(r3, bad); len(d) != 0 {
			t.Fatalf("decided through invalid digest-only commits with the value known: %+v", d)
		}
	}
}

func TestCommitMessagesDecideSlow(t *testing.T) {
	f := newFixture(types.Generalized(2, 1), 26) // n=7, commit quorum 5
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	cc := f.commitCert(x, 1)
	var decided []types.Decision
	for i := 1; i <= 5; i++ {
		pid := types.ProcessID(i)
		decided = append(decided, decisions(r.Deliver(pid, &msg.Commit{CC: *cc}))...)
	}
	if len(decided) != 1 || decided[0].Path != types.SlowPath {
		t.Fatalf("expected one slow decision, got %v", decided)
	}
	// A Commit whose certificate value does not hash to the digest its
	// signatures cover is dropped.
	r2 := f.newReplica(t, 0, nil)
	bad := &msg.Commit{CC: *cc}
	bad.CC.Value = types.Value("other")
	for i := 1; i <= 5; i++ {
		if len(decisions(r2.Deliver(types.ProcessID(i), bad))) != 0 {
			t.Fatal("mismatched commit decided")
		}
	}
}

func TestViewsNeverDecrease(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 27)
	r := f.newReplica(t, 0, nil)
	r.EnterView(5)
	if r.View() != 5 {
		t.Fatalf("view %s, want v5", r.View())
	}
	r.EnterView(3)
	if r.View() != 5 {
		t.Fatalf("view decreased to %s", r.View())
	}
	r.EnterView(5)
	if r.View() != 5 {
		t.Fatal("re-entering the same view must be a no-op")
	}
}

func TestFutureProposalBufferedUntilViewEntry(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 28)
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	leader2 := types.View(2).Leader(f.cfg.N)
	prop := &msg.Propose{View: 2, X: x, Cert: f.progressCert(x, 2), Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(x, 2))}
	if countKind(r.Deliver(leader2, prop), msg.KindAck) != 0 {
		t.Fatal("future-view proposal processed early")
	}
	actions := r.EnterView(2)
	if countKind(actions, msg.KindAck) != 1 {
		t.Fatal("buffered proposal not replayed on view entry")
	}
}

func TestVoteSentToNewLeaderCarriesAdoptedState(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 29)
	leader1 := types.View(1).Leader(f.cfg.N)
	var follower types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		if pid := types.ProcessID(i); pid != leader1 && pid != types.View(2).Leader(f.cfg.N) {
			follower = pid
			break
		}
	}
	r := f.newReplica(t, follower, nil)
	x := types.Value("x")
	prop := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader1).Sign(msg.ProposeDigest(x, 1))}
	r.Deliver(leader1, prop)

	actions := r.EnterView(2)
	var vote *msg.Vote
	for _, a := range actions {
		if s, ok := a.(core.SendAction); ok {
			if v, ok := s.Msg.(*msg.Vote); ok {
				vote = v
			}
		}
	}
	if vote == nil {
		t.Fatal("no vote sent on view entry")
	}
	if vote.SV.Vote.Nil || !vote.SV.Vote.Value.Equal(x) || vote.SV.Vote.View != 1 {
		t.Fatalf("vote does not carry the adopted proposal: %+v", vote.SV.Vote)
	}
	th := f.th
	if !vote.SV.Valid(f.verifier(), th, 2) {
		t.Fatal("emitted vote fails validation")
	}
}

func TestCertAckOnlyForJustifiedRequests(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 30)
	r := f.newReplica(t, 0, nil)
	x := types.Value("x")
	votes := []msg.SignedVote{
		f.signed(0, f.adopted(x, 1), 2),
		f.signed(2, msg.NilVote(), 2),
		f.signed(3, msg.NilVote(), 2),
	}
	ok := &msg.CertRequest{View: 2, X: x, Votes: votes}
	if countKind(r.Deliver(types.View(2).Leader(f.cfg.N), ok), msg.KindCertAck) != 1 {
		t.Fatal("justified request not endorsed")
	}
	bad := &msg.CertRequest{View: 2, X: types.Value("evil"), Votes: votes}
	if countKind(r.Deliver(types.View(2).Leader(f.cfg.N), bad), msg.KindCertAck) != 0 {
		t.Fatal("unjustified request endorsed")
	}
}

func TestLeaderViewChangeProducesJustifiedProposal(t *testing.T) {
	// Drive a full view change by hand: the new leader collects votes,
	// sends CertRequests, gathers CertAcks, and proposes a value whose
	// certificate any replica accepts.
	f := newFixture(types.Generalized(1, 1), 31)
	leader2 := types.View(2).Leader(f.cfg.N)
	r := f.newReplica(t, leader2, types.Value("leader-input"))
	actions := r.EnterView(2)
	if countKind(actions, msg.KindCertRequest) != 0 {
		t.Fatal("certificate round started before n−f votes")
	}
	x := types.Value("adopted")
	var all []core.Action
	for _, voter := range []types.ProcessID{0, 3} {
		sv := f.signed(voter, f.adopted(x, 1), 2)
		all = append(all, r.Deliver(voter, &msg.Vote{View: 2, SV: sv})...)
	}
	if countKind(all, msg.KindCertRequest) == 0 {
		t.Fatal("no certificate round after vote quorum")
	}
	// Answer with a CertAck from one other process: together with the
	// leader's own endorsement that is f+1 = 2.
	phi := f.scheme.Signer(0).Sign(msg.CertAckDigest(msg.ValueDigest(x), 2))
	proposeActs := r.Deliver(0, &msg.CertAck{View: 2, D: msg.ValueDigest(x), Phi: phi})
	if countKind(proposeActs, msg.KindPropose) != 1 {
		t.Fatal("leader did not propose after f+1 CertAcks")
	}
	var prop *msg.Propose
	for _, a := range proposeActs {
		if b, ok := a.(core.BroadcastAction); ok {
			if p, ok := b.Msg.(*msg.Propose); ok {
				prop = p
			}
		}
	}
	if prop == nil {
		t.Fatal("proposal not broadcast")
	}
	if !prop.X.Equal(x) {
		t.Fatalf("leader proposed %s, selection forced %s", prop.X, x)
	}
	if !prop.Cert.VerifyFor(f.verifier(), f.th, x, 2) {
		t.Fatal("proposal carries an invalid progress certificate")
	}
	// A fresh replica in view 2 accepts it.
	r2 := f.newReplica(t, 0, nil)
	r2.EnterView(2)
	if countKind(r2.Deliver(leader2, prop), msg.KindAck) != 1 {
		t.Fatal("fresh replica rejected the justified proposal")
	}
}

func TestLeaderIgnoresBogusVotesAndCertAcks(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 32)
	leader2 := types.View(2).Leader(f.cfg.N)
	r := f.newReplica(t, leader2, types.Value("in"))
	r.EnterView(2)
	// Vote claiming a different voter than its channel.
	sv := f.signed(0, msg.NilVote(), 2)
	if len(r.Deliver(3, &msg.Vote{View: 2, SV: sv})) != 0 {
		t.Fatal("vote from mismatched channel processed")
	}
	// Vote for an old view.
	if len(r.Deliver(0, &msg.Vote{View: 1, SV: f.signed(0, msg.NilVote(), 1)})) != 0 {
		t.Fatal("stale vote processed")
	}
	// CertAck before any certificate round.
	d := msg.ValueDigest(types.Value("x"))
	phi := f.scheme.Signer(0).Sign(msg.CertAckDigest(d, 2))
	if len(r.Deliver(0, &msg.CertAck{View: 2, D: d, Phi: phi})) != 0 {
		t.Fatal("unsolicited CertAck processed")
	}
}

// TestRestoreVoteStateBlocksEquivocation models crash recovery: a replica
// that acked value x in view 1, lost its memory, and was restored from its
// persisted vote record must re-ack the identical proposal (the original
// ack may have been lost — re-sending it is safe and keeps the slot live)
// but never ack a different value in that view, even when the equivocating
// proposal is otherwise perfectly valid.
func TestRestoreVoteStateBlocksEquivocation(t *testing.T) {
	f := newFixture(types.Generalized(1, 1), 33)
	leader := types.View(1).Leader(f.cfg.N)
	var follower types.ProcessID
	for i := 0; i < f.cfg.N; i++ {
		if types.ProcessID(i) != leader {
			follower = types.ProcessID(i)
			break
		}
	}

	// Pre-crash incarnation acks (1, x) and its vote record is persisted.
	r1 := f.newReplica(t, follower, types.Value("own-input"))
	x := types.Value("x")
	propX := &msg.Propose{View: 1, X: x, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(x, 1))}
	if countKind(r1.Deliver(leader, propX), msg.KindAck) != 1 {
		t.Fatal("pre-crash replica did not ack")
	}
	persisted := r1.CurrentVote()

	// Post-crash incarnation, restored before Init.
	r2, err := core.NewReplica(f.cfg, follower, f.scheme.Signer(follower), f.verifier(), types.Value("own-input"))
	if err != nil {
		t.Fatal(err)
	}
	r2.RestoreVoteState(map[types.View]types.Value{1: x}, &persisted)
	r2.Init()

	// The adopted vote survives the crash: the recovered replica's vote in
	// a future view change still carries (x, 1).
	if vote := r2.CurrentVote(); vote.Nil || !vote.Value.Equal(x) || vote.View != 1 {
		t.Fatalf("restored vote lost: %+v", vote)
	}
	// An equivocating proposal for the acked view is never acked...
	y := types.Value("y")
	propY := &msg.Propose{View: 1, X: y, Tau: f.scheme.Signer(leader).Sign(msg.ProposeDigest(y, 1))}
	if countKind(r2.Deliver(leader, propY), msg.KindAck) != 0 {
		t.Fatal("recovered replica equivocated against its pre-crash ack")
	}
	// ...and the adopted record is not overwritten by the refusal.
	if vote := r2.CurrentVote(); !vote.Value.Equal(x) {
		t.Fatal("refused proposal overwrote the restored vote")
	}
	// The identical proposal is re-acked (an identical ack cannot
	// equivocate, and the pre-crash one may never have been delivered).
	if countKind(r2.Deliver(leader, propX), msg.KindAck) != 1 {
		t.Fatal("recovered replica refused to re-ack its own pre-crash value")
	}
	// A later view is unrestricted: the guard pins only acked views.
	r2.EnterView(2)
	leader2 := types.View(2).Leader(f.cfg.N)
	okCert := f.progressCert(y, 2)
	propY2 := &msg.Propose{View: 2, X: y, Cert: okCert, Tau: f.scheme.Signer(leader2).Sign(msg.ProposeDigest(y, 2))}
	if countKind(r2.Deliver(leader2, propY2), msg.KindAck) != 1 {
		t.Fatal("restored guard leaked into views the replica never acked in")
	}
}
