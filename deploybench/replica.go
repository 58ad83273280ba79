package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	fastbft "repro"
	"repro/internal/group"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
)

// Deployment constants shared by the replica children and the load
// generator.
const (
	ckptInterval = 8       // the checkpoint interval examples/kvstore and the drills use
	syncMode     = "group" // WAL fsync policy
)

// cluster is the deployed configuration: n = 4, f = t = 1.
var clusterCfg = fastbft.VanillaConfig(1)

// kvReplica is what a replica child serves: the stack fastbft.NewKVReplica
// builds, or the traced copy of it.
type kvReplica interface {
	Addr() string
	ClientAddr() string
	MetricsAddr() string
	SetPeers([]string) error
	Start() error
	Close() error
	Get(key string) (string, bool)
}

// replicaMain is the child role: one replica process, coordinated with the
// load generator over stdin/stdout. It prints "ADDRS <peer> <client>
// <metrics>", reads "PEERS <addr>...", starts and prints "READY", then
// serves until stdin closes. On EOF it writes its key/value state (and, when
// traced, its spans) into -out and exits.
func replicaMain(args []string) error {
	fs := flag.NewFlagSet("replica", flag.ContinueOnError)
	self := fs.Int("self", 0, "process id")
	seed := fs.Int64("seed", 1, "key seed shared with the load generator")
	shards := fs.Int("shards", 1, "consensus groups per process")
	keys := fs.Int("keys", 0, "keyspace size, for the state dump")
	dataDir := fs.String("datadir", "", "data directory")
	out := fs.String("out", "", "directory for the state dump and spans")
	traced := fs.Bool("trace", false, "build the traced stack and record spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required")
	}
	var (
		r   kvReplica
		rec *recorder
		err error
	)
	if *traced {
		prof, perr := os.Create(fmt.Sprintf("%s/cpu-%d.pprof", *out, *self))
		if perr != nil {
			return perr
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			_ = prof.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = prof.Close() // a truncated profile fails to parse in the load generator
		}()
		rec = newRecorder()
		r, err = newTracedReplica(types.ProcessID(*self), *seed, *shards, *dataDir, rec)
	} else {
		r, err = fastbft.NewKVReplica(fastbft.KVReplicaConfig{
			Cluster:            clusterCfg,
			Self:               fastbft.ProcessID(*self),
			Keys:               fastbft.GenerateTestKeys(clusterCfg.N, *seed),
			ListenAddr:         "127.0.0.1:0",
			ClientListenAddr:   "127.0.0.1:0",
			MetricsAddr:        "127.0.0.1:0",
			CheckpointInterval: ckptInterval,
			DataDir:            *dataDir,
			SyncMode:           syncMode,
			Shards:             *shards,
		})
	}
	if err != nil {
		return err
	}
	fmt.Printf("ADDRS %s %s %s\n", r.Addr(), r.ClientAddr(), r.MetricsAddr())
	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() {
		_ = r.Close()
		return fmt.Errorf("stdin closed before PEERS: %v", in.Err())
	}
	fields := strings.Fields(in.Text())
	if len(fields) != clusterCfg.N+1 || fields[0] != "PEERS" {
		_ = r.Close()
		return fmt.Errorf("want PEERS and %d addresses, got %q", clusterCfg.N, in.Text())
	}
	if err := r.SetPeers(fields[1:]); err != nil {
		_ = r.Close()
		return err
	}
	if err := r.Start(); err != nil {
		_ = r.Close()
		return err
	}
	fmt.Println("READY")
	for in.Scan() {
	}
	if err := writeState(r, *keys, fmt.Sprintf("%s/state-%d.txt", *out, *self)); err != nil {
		_ = r.Close()
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	if rec != nil {
		return rec.writeFile(fmt.Sprintf("%s/spans-%d.jsonl", *out, *self))
	}
	return nil
}

// writeState dumps "key value" for every present key of the keyspace.
func writeState(r kvReplica, keys int, path string) error {
	var b strings.Builder
	for k := 0; k < keys; k++ {
		if v, ok := r.Get(keyName(k)); ok {
			fmt.Fprintf(&b, "%s %s\n", keyName(k), v)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readState parses a file written by writeState.
func readState(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	st := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		st[k] = v
	}
	return st, nil
}

// tracedReplica is the stack fastbft.NewKVReplica builds for the same
// shard count — one TCP transport, a GroupMux when sharded, one group.Group
// and smr.KVStore per shard, a client listener and a metrics endpoint —
// with the interfaces group.New and the client listener accept wrapped to
// record spans.
type tracedReplica struct {
	tr       *transport.TCPTransport
	groups   []*group.Group
	stores   []*smr.KVStore
	ln       *transport.ClientListener
	srv      *obs.Server
	closeAll func()
}

func newTracedReplica(self types.ProcessID, seed int64, shards int, dataDir string, rec *recorder) (*tracedReplica, error) {
	mode, err := storage.ParseSyncMode(syncMode)
	if err != nil {
		return nil, err
	}
	scheme := sigcrypto.NewEd25519Deterministic(clusterCfg.N, seed)
	reg := obs.NewRegistry()
	labels := obs.Labels{"replica": strconv.Itoa(int(self))}
	tr, err := transport.NewTCP(transport.TCPConfig{
		Self:          self,
		N:             clusterCfg.N,
		ListenAddr:    "127.0.0.1:0",
		Signer:        scheme.Signer(self),
		Verifier:      scheme.Verifier(),
		Metrics:       reg,
		MetricsLabels: labels,
	})
	if err != nil {
		return nil, err
	}
	r := &tracedReplica{tr: tr}
	r.closeAll = func() {
		if r.srv != nil {
			_ = r.srv.Close()
		}
		if r.ln != nil {
			_ = r.ln.Close()
		}
		for _, g := range r.groups {
			_ = g.Close()
		}
		if len(r.groups) == 0 {
			_ = tr.Close()
		}
	}
	var mux *transport.GroupMux
	if shards > 1 {
		mux = transport.NewGroupMux(tr, shards)
		mux.Instrument(reg, labels)
	}
	for i := 0; i < shards; i++ {
		gtr := transport.Transport(tr)
		if mux != nil {
			gtr = mux.View(i)
		}
		store := smr.NewKVStore()
		g, err := group.New(group.Config{
			Cluster:            clusterCfg,
			Index:              i,
			Shards:             shards,
			Self:               self,
			Signer:             tracedSigner{inner: scheme.Signer(self), rec: rec},
			Verifier:           tracedVerifier{inner: scheme.Verifier(), rec: rec},
			Transport:          &tracedTransport{inner: gtr, rec: rec, group: i},
			App:                tracedApp{inner: store, rec: rec, group: i},
			BaseTimeout:        500 * time.Millisecond, // NewKVReplica's default
			CheckpointInterval: ckptInterval,
			DataDir:            dataDir,
			SyncMode:           mode,
			Metrics:            reg,
			MetricsLabels:      labels,
		})
		if err != nil {
			r.closeAll()
			return nil, err
		}
		r.groups = append(r.groups, g)
		r.stores = append(r.stores, store)
	}
	r.ln, err = transport.NewClientListener(transport.ClientListenerConfig{
		Self:       self,
		ListenAddr: "127.0.0.1:0",
		Signer:     scheme.Signer(self),
		Handler: func(req *msg.Request, reply func(*msg.Reply)) error {
			if req.Group >= uint64(len(r.groups)) {
				return fmt.Errorf("request for group %d of %d", req.Group, len(r.groups))
			}
			a := rec.begin(spanRequest)
			a.s.Group, a.s.Session, a.s.Seq, a.s.Op = int(req.Group), string(req.Client), req.Seq, rec.hash(req.Op)
			err := r.groups[req.Group].Replica().HandleRequest(req, reply)
			rec.end(a)
			return err
		},
	})
	if err != nil {
		r.closeAll()
		return nil, err
	}
	r.srv, err = obs.NewServer("127.0.0.1:0", reg)
	if err != nil {
		r.closeAll()
		return nil, err
	}
	return r, nil
}

func (r *tracedReplica) Addr() string                  { return r.tr.Addr() }
func (r *tracedReplica) ClientAddr() string            { return r.ln.Addr() }
func (r *tracedReplica) MetricsAddr() string           { return r.srv.Addr() }
func (r *tracedReplica) SetPeers(addrs []string) error { return r.tr.SetPeers(addrs) }

func (r *tracedReplica) Start() error {
	for _, g := range r.groups {
		if err := g.Start(); err != nil {
			return err
		}
	}
	return r.ln.Start()
}

func (r *tracedReplica) Close() error {
	r.closeAll()
	return nil
}

func (r *tracedReplica) Get(key string) (string, bool) {
	return r.stores[smr.ShardOf(key, len(r.stores))].Get(key)
}
