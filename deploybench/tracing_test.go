package main

import (
	"testing"

	"repro/internal/msg"
	"repro/internal/types"
)

// fakeClientTransport keeps the handler so a test can deliver replies.
type fakeClientTransport struct {
	h func(from types.ProcessID, rep *msg.Reply)
}

func (f *fakeClientTransport) Send(types.ProcessID, *msg.Request) error { return nil }
func (f *fakeClientTransport) SetHandler(h func(types.ProcessID, *msg.Reply)) {
	f.h = h
}
func (f *fakeClientTransport) Close() error { return nil }

func TestQuorumWaitCountsDistinctReplicas(t *testing.T) {
	inner := &fakeClientTransport{}
	rec := newRecorder()
	tr := newTracedClientTransport(inner, rec, 0, clusterCfg)
	tr.SetHandler(func(types.ProcessID, *msg.Reply) {})
	if err := tr.Send(1, &msg.Request{Client: "c", Seq: 1, Op: []byte("op")}); err != nil {
		t.Fatal(err)
	}
	reply := func(from types.ProcessID) {
		inner.h(from, &msg.Reply{Client: "c", Seq: 1, Replica: from, Result: []byte("ok")})
	}
	// A retransmission answered twice by one replica is still one vote.
	reply(2)
	reply(2)
	tr.mu.Lock()
	settled := tr.pending[1].done
	tr.mu.Unlock()
	if settled {
		t.Fatal("two replies from one replica settled the quorum")
	}
	reply(3)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	if s := spans[0]; s.Replies != 3 || s.Sends != 1 || s.End < s.Start {
		t.Fatalf("span = %+v, want 3 replies, 1 send, End >= Start", s)
	}
}
