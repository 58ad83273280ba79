package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/transport"
	"repro/internal/types"
)

// Span names: "<layer>.<call>", one per public-interface boundary the
// traced run wraps.
const (
	spanSign     = "sigcrypto.sign"     // Signer.Sign
	spanVerify   = "sigcrypto.verify"   // Verifier.Verify
	spanSend     = "transport.send"     // Transport.Send and Broadcast
	spanDeliver  = "transport.deliver"  // the delivery handler, i.e. all consensus work on one frame
	spanRequest  = "smr.request"        // Replica.HandleRequest for a client frame
	spanApply    = "app.apply"          // App.Apply
	spanSnapshot = "app.snapshot"       // Snapshotter.Snapshot
	spanClient   = "client.quorum_wait" // first send of a request to its f+1-th matching reply
)

// span is one recorded interval. Spans of one replica that handle the same
// log slot share (Group, Slot); an app.apply span carries the hash of the
// command (Op), which the load generator's client span for the request
// carries too, together with the request's (Session, Seq).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"` // innermost open span on the same goroutine
	Name    string `json:"name"`
	Start   int64  `json:"start"` // ns since the recorder's epoch
	End     int64  `json:"end"`
	Group   int    `json:"group"`
	Slot    uint64 `json:"slot,omitempty"`
	Op      uint64 `json:"op,omitempty"`
	Session string `json:"session,omitempty"`
	Seq     uint64 `json:"seq,omitempty"`
	Bytes   int    `json:"bytes,omitempty"`
	// Key identifies a verified (signer, message, signature) triple.
	Key    uint64 `json:"key,omitempty"`
	Failed bool   `json:"failed,omitempty"`
	// Sends, Replies count a client request's frames (client spans only).
	Sends   int `json:"sends,omitempty"`
	Replies int `json:"replies,omitempty"`
}

// recorder keeps spans in memory until the run ends. Parents are found
// through a per-goroutine stack of open spans, so a span opened while the
// same goroutine is inside another becomes its child. While a top-level
// span is open its goroutine carries the pprof label span=<name>, which is
// how CPU samples are matched to spans (see profile.go).
type recorder struct {
	epoch time.Time
	seed  maphash.Seed

	mu     sync.Mutex
	next   uint64
	open   map[uintptr][]uint64 // goroutine (see curg) -> open span ids
	spans  []span
	labels map[string]context.Context // span name -> pprof label set
}

func newRecorder() *recorder {
	return &recorder{
		epoch:  time.Now(),
		seed:   maphash.MakeSeed(),
		open:   map[uintptr][]uint64{},
		labels: map[string]context.Context{},
	}
}

// active is an open span.
type active struct {
	s span
	g uintptr
}

func (r *recorder) begin(name string) *active {
	a := &active{s: span{Name: name}, g: curg()}
	r.mu.Lock()
	r.next++
	a.s.ID = r.next
	stack := r.open[a.g]
	if len(stack) > 0 {
		a.s.Parent = stack[len(stack)-1]
	}
	r.open[a.g] = append(stack, a.s.ID)
	var labels context.Context
	if len(stack) == 0 {
		if labels = r.labels[name]; labels == nil {
			labels = pprof.WithLabels(context.Background(), pprof.Labels("span", name))
			r.labels[name] = labels
		}
	}
	r.mu.Unlock()
	if labels != nil {
		pprof.SetGoroutineLabels(labels)
	}
	a.s.Start = int64(time.Since(r.epoch))
	return a
}

func (r *recorder) end(a *active) {
	a.s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	stack := r.open[a.g]
	if n := len(stack); n > 0 && stack[n-1] == a.s.ID {
		stack = stack[:n-1]
	}
	top := len(stack) == 0
	if top {
		delete(r.open, a.g)
	} else {
		r.open[a.g] = stack
	}
	r.spans = append(r.spans, a.s)
	r.mu.Unlock()
	if top {
		pprof.SetGoroutineLabels(context.Background())
	}
}

// record appends a span timed outside begin/end.
func (r *recorder) record(s span) {
	r.mu.Lock()
	r.next++
	s.ID = r.next
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// hash digests byte strings with the recorder's seed.
func (r *recorder) hash(parts ...[]byte) uint64 {
	var h maphash.Hash
	h.SetSeed(r.seed)
	for _, p := range parts {
		_, _ = h.Write(p) // maphash.Hash.Write never fails
	}
	return h.Sum64()
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile writes every recorded span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// readSpans reads a file written by writeFile.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Replica-side wrappers: the interfaces group.New accepts.
// ---------------------------------------------------------------------------

// tracedSigner wraps sigcrypto.Signer.
type tracedSigner struct {
	inner sigcrypto.Signer
	rec   *recorder
}

func (s tracedSigner) ID() types.ProcessID { return s.inner.ID() }

func (s tracedSigner) Sign(m []byte) sigcrypto.Signature {
	a := s.rec.begin(spanSign)
	sig := s.inner.Sign(m)
	a.s.Bytes = len(m)
	s.rec.end(a)
	return sig
}

// tracedVerifier wraps sigcrypto.Verifier; each span carries a hash of the
// (signer, message, signature) triple so duplicate verifications show.
type tracedVerifier struct {
	inner sigcrypto.Verifier
	rec   *recorder
}

func (v tracedVerifier) Verify(m []byte, sig sigcrypto.Signature) bool {
	a := v.rec.begin(spanVerify)
	ok := v.inner.Verify(m, sig)
	var signer [8]byte
	binary.LittleEndian.PutUint64(signer[:], uint64(sig.Signer))
	a.s.Key = v.rec.hash(signer[:], m, sig.Bytes)
	a.s.Bytes = len(m)
	a.s.Failed = !ok
	v.rec.end(a)
	return ok
}

// tracedTransport wraps one group's transport.Transport: sends become
// transport.send spans and every delivered frame a transport.deliver span
// tagged with the frame's (group, slot).
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
	group int
}

func (t *tracedTransport) Self() types.ProcessID { return t.inner.Self() }

func (t *tracedTransport) Send(to types.ProcessID, payload []byte) error {
	a := t.begin(spanSend, payload)
	err := t.inner.Send(to, payload)
	t.rec.end(a)
	return err
}

func (t *tracedTransport) Broadcast(payload []byte) error {
	a := t.begin(spanSend, payload)
	err := t.inner.Broadcast(payload)
	t.rec.end(a)
	return err
}

func (t *tracedTransport) SetHandler(h transport.Handler) {
	if h == nil {
		t.inner.SetHandler(nil)
		return
	}
	t.inner.SetHandler(func(from types.ProcessID, payload []byte) {
		a := t.begin(spanDeliver, payload)
		h(from, payload)
		t.rec.end(a)
	})
}

func (t *tracedTransport) Start() error { return t.inner.Start() }

func (t *tracedTransport) Close() error { return t.inner.Close() }

// begin opens a span for one SMR frame; the frame's envelope starts with
// its slot as a uvarint.
func (t *tracedTransport) begin(name string, payload []byte) *active {
	a := t.rec.begin(name)
	a.s.Group = t.group
	a.s.Bytes = len(payload)
	if slot, n := binary.Uvarint(payload); n > 0 {
		a.s.Slot = slot
	}
	return a
}

// tracedApp wraps the KV store as smr.App and smr.Snapshotter.
type tracedApp struct {
	inner *smr.KVStore
	rec   *recorder
	group int
}

func (a tracedApp) Apply(slot uint64, cmd smr.Command) []byte {
	sp := a.rec.begin(spanApply)
	res := a.inner.Apply(slot, cmd)
	sp.s.Group, sp.s.Slot, sp.s.Op, sp.s.Bytes = a.group, slot, a.rec.hash(cmd), len(cmd)
	a.rec.end(sp)
	return res
}

func (a tracedApp) Snapshot() []byte {
	sp := a.rec.begin(spanSnapshot)
	snap := a.inner.Snapshot()
	sp.s.Group, sp.s.Bytes = a.group, len(snap)
	a.rec.end(sp)
	return snap
}

func (a tracedApp) Restore(data []byte) error { return a.inner.Restore(data) }

// ---------------------------------------------------------------------------
// Client-side wrapper: the interface client.New accepts.
// ---------------------------------------------------------------------------

// tracedClientTransport wraps a client.Transport. For each request it
// records one client.quorum_wait span, from the first send to the f+1-th
// matching reply, counting the frames sent and replies received.
type tracedClientTransport struct {
	inner client.Transport
	rec   *recorder
	group int
	need  int // matching replies that settle a request: f+1

	mu      sync.Mutex
	pending map[uint64]*clientReq // by sequence number
}

type clientReq struct {
	s     span
	votes map[types.ProcessID][]byte // each replica's latest result
	done  bool
}

func newTracedClientTransport(inner client.Transport, rec *recorder, group int, cluster types.Config) *tracedClientTransport {
	return &tracedClientTransport{
		inner: inner, rec: rec, group: group, need: cluster.F + 1,
		pending: map[uint64]*clientReq{},
	}
}

func (t *tracedClientTransport) Send(to types.ProcessID, req *msg.Request) error {
	t.mu.Lock()
	cr := t.pending[req.Seq]
	if cr == nil {
		cr = &clientReq{
			s: span{
				Name: spanClient, Start: int64(time.Since(t.rec.epoch)),
				Group: t.group, Session: string(req.Client), Seq: req.Seq, Op: t.rec.hash(req.Op),
			},
			votes: map[types.ProcessID][]byte{},
		}
		t.pending[req.Seq] = cr
	}
	cr.s.Sends++
	t.mu.Unlock()
	return t.inner.Send(to, req)
}

func (t *tracedClientTransport) SetHandler(h func(from types.ProcessID, rep *msg.Reply)) {
	t.inner.SetHandler(func(from types.ProcessID, rep *msg.Reply) {
		t.observe(from, rep)
		h(from, rep)
	})
}

// observe counts one reply and closes the request's span once f+1 distinct
// replicas have sent matching results; like the client, it keeps one vote
// per replica, so a retransmission answered twice by one replica's reply
// cache does not settle the span. The client itself still applies its own
// checks (group, signature); this tally only times the quorum.
func (t *tracedClientTransport) observe(from types.ProcessID, rep *msg.Reply) {
	if rep == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cr := t.pending[rep.Seq]
	if cr == nil {
		return
	}
	cr.s.Replies++
	if cr.done {
		return
	}
	cr.votes[from] = rep.Result
	matching := 0
	for _, r := range cr.votes {
		if bytes.Equal(r, rep.Result) {
			matching++
		}
	}
	if matching < t.need {
		return
	}
	cr.done = true
	cr.s.End = int64(time.Since(t.rec.epoch))
}

// Close records the span of every settled request, counting the replies
// that arrived up to now, and closes the inner transport.
func (t *tracedClientTransport) Close() error {
	t.mu.Lock()
	for seq, cr := range t.pending {
		if cr.done {
			t.rec.record(cr.s)
		}
		delete(t.pending, seq)
	}
	t.mu.Unlock()
	return t.inner.Close()
}
