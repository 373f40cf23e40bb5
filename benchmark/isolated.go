package main

import (
	"context"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/acl"
	"repro/internal/cache"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/xdr"
)

// Isolated replays give each layer's unit cost outside the stack: they
// run after the traced workload, never during a timed phase, against
// the layer's public functions only, with messages drawn from the mix
// the workload recorded. They say what a layer costs per message; the
// spans say how much of the run it was.

// isolated holds the replay results; a layer the workload did not use
// reports zeros.
type isolated struct {
	cacheGetUs, cachePutUs             float64
	chanMBps, chanRecordUs, chanAllocs float64
	xdrNsPerMsg, xdrMBps, xdrAllocs    float64
	rpcCallUs, rpcAllocs, rpcMBps      float64
	aclCheckUs                         float64
}

// replayBudget is how long each replay loops.
const replayBudget = 150 * time.Millisecond

// replayer runs the isolated replays with one time budget each.
type replayer struct {
	isolated
	budget time.Duration
}

// measure loops step until the budget is spent and returns iterations,
// elapsed time and heap allocations made.
func (r *replayer) measure(step func()) (n int, elapsed time.Duration, mallocs uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for elapsed < r.budget {
		for i := 0; i < 16; i++ {
			step()
		}
		n += 16
		elapsed = time.Since(t0)
	}
	runtime.ReadMemStats(&m1)
	return n, elapsed, m1.Mallocs - m0.Mallocs
}

// schedule spreads up to 64 slots over the items in proportion to
// their counts (at least one each), so a replay loop sees the recorded
// mix.
func schedule(counts []int) []int {
	sum := 0
	for _, c := range counts {
		sum += c
	}
	var out []int
	for i, c := range counts {
		if c == 0 {
			continue
		}
		n := 64 * c / sum
		if n == 0 {
			n = 1
		}
		for ; n > 0; n-- {
			out = append(out, i)
		}
	}
	return out
}

func replayIsolated(tr *tracer, p *pki, budget time.Duration) isolated {
	if budget == 0 {
		budget = replayBudget
	}
	r := &replayer{budget: budget}
	mix := clientMix(tr.snapshot()[layerClient])
	r.replayCache()
	r.replayChannel(tr, p)
	r.replayXDR(mix)
	r.replayRPC(mix)
	r.replayACL(p)
	return r.isolated
}

// replayCache times DiskCache.PutBlock and GetBlock of 32 KiB blocks
// in a temporary directory.
func (r *replayer) replayCache() {
	dir, err := os.MkdirTemp("", "sgfs-benchmark-iso-*")
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	dc, err := cache.New(dir, blockSize, 1<<30)
	if err != nil {
		return
	}
	defer dc.Close()
	fh := nfs3.FH3{Data: []byte("isolated-replay!")}
	block := make([]byte, blockSize)
	const blocks = 512
	i, failed := uint64(0), false
	n, d, _ := r.measure(func() {
		if dc.PutBlock(fh, i%blocks, block, false) != nil {
			failed = true
		}
		i++
	})
	putUs := float64(d) / float64(n) / 1e3
	i = 0
	n, d, _ = r.measure(func() {
		if _, ok := dc.GetBlock(fh, i%blocks); !ok {
			failed = true
		}
		i++
	})
	if !failed {
		r.cachePutUs, r.cacheGetUs = putUs, float64(d)/float64(n)/1e3
	}
}

// replayChannel pushes records of the recorded frame sizes through a
// securechan client/server pair joined by an in-memory pipe.
func (r *replayer) replayChannel(tr *tracer, p *pki) {
	var sizes, counts []int
	for b, c := range tr.wan.sizeCount {
		if c > 0 {
			sizes = append(sizes, int(tr.wan.sizeBytes[b]/c))
			counts = append(counts, int(c))
		}
	}
	order := schedule(counts)
	if len(order) == 0 {
		return
	}
	suites := []securechan.Suite{securechan.SuiteAES256SHA1}
	a, b := net.Pipe()
	srvCh := make(chan *securechan.Conn, 1)
	go func() {
		// Both handshakes close their end on failure, which fails the other.
		s, err := securechan.Server(b, &securechan.Config{Credential: p.host, Roots: p.roots, Suites: suites})
		if err != nil {
			s = nil
		}
		srvCh <- s
	}()
	cli, err := securechan.Client(a, &securechan.Config{Credential: p.user, Roots: p.roots, Suites: suites})
	srv := <-srvCh
	if err != nil || srv == nil {
		return
	}
	defer srv.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sink := make([]byte, 32<<10)
		for {
			if _, err := srv.Read(sink); err != nil {
				return // the client side closed
			}
		}
	}()
	buf := make([]byte, 16<<10)
	i, bytes, failed := 0, 0, false
	n, d, mallocs := r.measure(func() {
		size := sizes[order[i%len(order)]]
		if size > len(buf) {
			size = len(buf)
		}
		if size == 0 {
			size = 1
		}
		if _, err := cli.Write(buf[:size]); err != nil {
			failed = true
		}
		bytes += size
		i++
	})
	if cli.Close() != nil {
		failed = true
	}
	<-drained
	if failed {
		return
	}
	r.chanMBps = float64(bytes) / 1e6 / d.Seconds()
	r.chanRecordUs = float64(d) / float64(n) / 1e3
	r.chanAllocs = float64(mallocs) / float64(n)
}

// codec is a message that can be encoded and decoded.
type codec interface {
	xdr.Marshaler
	xdr.Unmarshaler
}

// sampleMessages builds a call and a reply of roughly the recorded
// sizes for one procedure. Procedures without a case here are rare in
// every workload and stand in as LOOKUPs.
func sampleMessages(m rpcMix) (args, res codec) {
	fh := nfs3.FH3{Data: make([]byte, 16)}
	attr := nfs3.PostOpAttr{Present: true}
	payload := func(record int) []byte {
		n := record - 160 // RPC and NFS headers around the data
		if n < 0 {
			n = 0
		}
		return make([]byte, n)
	}
	switch m.proc {
	case nfs3.ProcGetAttr:
		return &nfs3.GetAttrArgs{Obj: fh}, &nfs3.GetAttrRes{}
	case nfs3.ProcAccess:
		return &nfs3.AccessArgs{Obj: fh, Access: 0x3f}, &nfs3.AccessRes{Attr: attr, Access: 0x3f}
	case nfs3.ProcRead:
		data := payload(m.in)
		return &nfs3.ReadArgs{Obj: fh, Count: blockSize}, &nfs3.ReadRes{Attr: attr, Count: uint32(len(data)), Data: data}
	case nfs3.ProcWrite:
		data := payload(m.out)
		return &nfs3.WriteArgs{Obj: fh, Count: uint32(len(data)), Data: data}, &nfs3.WriteRes{Count: uint32(len(data))}
	case nfs3.ProcCreate:
		return &nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: fh, Name: "f000000"}},
			&nfs3.CreateRes{Obj: nfs3.PostOpFH3{Present: true, FH: fh}, Attr: attr}
	case nfs3.ProcRemove:
		return &nfs3.RemoveArgs{Obj: nfs3.DirOpArgs{Dir: fh, Name: "f000000"}}, &nfs3.WccRes{}
	case nfs3.ProcCommit:
		return &nfs3.CommitArgs{Obj: fh}, &nfs3.CommitRes{}
	case nfs3.ProcReadDirPlus:
		res := &nfs3.ReadDirPlusRes{DirAttr: attr, EOF: true}
		for i := 0; i < m.in/150; i++ { // about 150 bytes per entry on the wire
			res.Entries = append(res.Entries, nfs3.DirEntryPlus{FileID: uint64(i), Name: "f000000", Cookie: uint64(i),
				Attr: attr, FH: nfs3.PostOpFH3{Present: true, FH: fh}})
		}
		return &nfs3.ReadDirPlusArgs{Dir: fh, DirCount: 8192, MaxCount: 32768}, res
	default:
		return &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: fh, Name: "f000000"}}, &nfs3.LookupRes{Obj: fh, Attr: attr, DirAttr: attr}
	}
}

// replayXDR encodes and decodes the recorded mix's messages with
// xdr.Marshal and xdr.Unmarshal.
func (r *replayer) replayXDR(mix []rpcMix) {
	type pair struct{ args, res, argsOut, resOut codec }
	var pairs []pair
	var counts []int
	for _, m := range mix {
		args, res := sampleMessages(m)
		argsOut, resOut := sampleMessages(rpcMix{proc: m.proc})
		pairs = append(pairs, pair{args, res, argsOut, resOut})
		counts = append(counts, m.count)
	}
	order := schedule(counts)
	if len(order) == 0 {
		return
	}
	i, bytes := 0, 0
	n, d, mallocs := r.measure(func() {
		p := pairs[order[i%len(order)]]
		i++
		for _, m := range [2][2]codec{{p.args, p.argsOut}, {p.res, p.resOut}} {
			b, err := xdr.Marshal(m[0])
			if err == nil {
				err = xdr.Unmarshal(b, m[1])
			}
			if err != nil {
				panic("benchmark: sample message does not round-trip: " + err.Error())
			}
			bytes += len(b)
		}
	})
	msgs := float64(2 * n)
	r.xdrNsPerMsg = float64(d) / msgs
	r.xdrMBps = float64(bytes) / 1e6 / d.Seconds()
	r.xdrAllocs = float64(mallocs) / msgs
}

// echoMsg is the isolated RPC replay's message: the reply carries Want
// bytes.
type echoMsg struct {
	Want uint32
	Data []byte
}

func (m *echoMsg) EncodeXDR(e *xdr.Encoder) { e.Uint32(m.Want); e.Opaque(m.Data) }
func (m *echoMsg) DecodeXDR(d *xdr.Decoder) { m.Want = d.Uint32(); m.Data = d.Opaque() }

const (
	echoProg = 0x20000099
	echoVers = 1
	echoProc = 1
)

// replayRPC times oncrpc.Client.Call against an in-process echo
// oncrpc.Server over loopback, with call and reply bodies of the
// recorded sizes.
func (r *replayer) replayRPC(mix []rpcMix) {
	var counts []int
	for _, m := range mix {
		counts = append(counts, m.count)
	}
	order := schedule(counts)
	if len(order) == 0 {
		return
	}
	reply := make([]byte, 64<<10)
	srv := oncrpc.NewServer()
	srv.Register(echoProg, echoVers, map[uint32]oncrpc.Handler{
		echoProc: func(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
			var in echoMsg
			if call.DecodeArgs(&in) != nil || int(in.Want) > len(reply) {
				return nil, oncrpc.GarbageArgs
			}
			return &echoMsg{Data: reply[:in.Want]}, oncrpc.Success
		},
	})
	l, err := listenLoopback()
	if err != nil {
		return
	}
	go srv.Serve(l)
	defer srv.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return
	}
	cl := oncrpc.NewClient(conn, echoProg, echoVers)
	defer cl.Close()
	ctx := context.Background()
	body := func(record int) int { // the RPC header is not part of the body
		if record < 64 {
			return 0
		}
		if record-64 > len(reply) {
			return len(reply)
		}
		return record - 64
	}
	out := make([]byte, 64<<10)
	i, bytes, failed := 0, 0, false
	n, d, mallocs := r.measure(func() {
		m := mix[order[i%len(order)]]
		i++
		var res echoMsg
		args := echoMsg{Want: uint32(body(m.in)), Data: out[:body(m.out)]}
		if cl.Call(ctx, echoProc, &args, &res) != nil {
			failed = true
		}
		bytes += len(args.Data) + len(res.Data)
	})
	if failed {
		return
	}
	r.rpcCallUs = float64(d) / float64(n) / 1e3
	r.rpcMBps = float64(bytes) / 1e6 / d.Seconds()
	r.rpcAllocs = float64(mallocs) / float64(n)
}

// replayACL times one cached ACL lookup plus the permission check.
func (r *replayer) replayACL(p *pki) {
	c := acl.NewCache()
	a := acl.New()
	dn := p.user.DN()
	a.Grant(dn, acl.PermAll)
	dir := make([]byte, 16)
	c.Put(dir, workRoot, a)
	n, d, _ := r.measure(func() {
		if got, ok := c.Get(dir, workRoot); ok {
			got.Check(dn)
		}
	})
	r.aclCheckUs = float64(d) / float64(n) / 1e3
}
