package oncrpc

import (
	"cmp"
	"context"
	"sync"
	"time"

	"repro/internal/xdr"
)

// The server's reply cache: the duplicate-request cache of NFS servers
// (Juszczak, USENIX Winter 1989) in the form of NFSv4.1 sessions (RFC
// 5661 §2.10.6), for the calls that carry an AuthSession verifier. A
// session has one entry per slot of its client; a call's xid names the
// slot (xid mod GatherDepth) and, above that, how many calls the slot
// has carried. So a call arriving again is told from a new one by its
// xid: the slot's current xid gets the stored reply (after waiting for
// it if the call still runs), a newer xid runs and its reply is stored,
// and an older one, a late copy from a dead connection, gets nothing.
//
// A session holds at most GatherDepth replies, each in the pooled
// encoder it was sent from; storing one releases the one it replaces,
// so the cache costs no copy and no allocation per call. Session calls
// run to their end even when their connection does not, so a stored
// reply is the call's real outcome. A session no connection has shown
// for sessionGrace is dropped.

// sessionGrace is how long a session outlives its last connection:
// longer than a client proxy's operation timeout (60 s by default), so
// a call sent again within its timeout finds its reply.
const sessionGrace = 2 * time.Minute

// replyCache is a Server's sessions, by id.
type replyCache struct {
	grace time.Duration // 0 means sessionGrace; tests shorten it

	mu       sync.Mutex
	sessions map[[16]byte]*replySession
}

type replySession struct {
	id [16]byte
	dn string // the peer identity of the connection that created it

	mu    sync.Mutex
	conns int    // live connections that have shown the session
	idle  uint64 // bumped each time conns falls to 0
	slots [GatherDepth]replySlot
}

type replySlot struct {
	xid   uint32
	used  bool // xid is set
	done  bool // reply is xid's answer
	reply *xdr.Encoder
	wake  chan struct{} // made by a waiter, closed when the slot changes
}

// signal wakes the calls waiting on the slot.
func (sl *replySlot) signal() {
	if sl.wake != nil {
		close(sl.wake)
		sl.wake = nil
	}
}

// slotRef names the slot that is to keep a running call's reply; the
// zero value keeps nothing.
type slotRef struct {
	sess *replySession
	xid  uint32
}

// keep hands a sent reply to the slot of the call that produced it,
// or back to the pool.
func (r slotRef) keep(reply *xdr.Encoder) {
	if r.sess != nil {
		r.sess.finish(r.xid, reply)
	} else {
		replyPool.Put(reply)
	}
}

// begin sorts one session call that arrived on sc. It returns the
// session when the call is to run, or else the reply to send: a stored
// reply's copy, a refusal, or nil for a call that gets none.
func (rc *replyCache) begin(ctx context.Context, sc *serverConn, h *callHeader) (*replySession, *xdr.Encoder) {
	sess := sc.sess.Load()
	if sess == nil || sess.id != h.Session.ID {
		var stat AuthStat
		if sess, stat = rc.attach(sc, &h.Session); stat != AuthOK {
			return nil, denyAuth(h.XID, stat)
		}
	}
	return sess.claim(ctx, h.XID)
}

// attach finds the session v names, or creates it for a call without
// the sessionBind flag, and counts sc as one of its live connections.
// A session shown under another peer identity (a secure channel's
// PeerDN) than its creator's, and a second session on one connection,
// are refused.
func (rc *replyCache) attach(sc *serverConn, v *sessionVerf) (*replySession, AuthStat) {
	var dn string
	if p, ok := sc.conn.(interface{ PeerDN() string }); ok {
		dn = p.PeerDN()
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	sess := rc.sessions[v.ID]
	switch {
	case sess == nil && v.Flags&sessionBind != 0:
		return nil, AuthRejectedVerf
	case sess == nil:
		if rc.sessions == nil {
			rc.sessions = make(map[[16]byte]*replySession)
		}
		sess = &replySession{id: v.ID, dn: dn}
		rc.sessions[v.ID] = sess
	case sess.dn != dn:
		return nil, AuthBadVerf
	}
	if !sc.sess.CompareAndSwap(nil, sess) {
		if sc.sess.Load() != sess {
			return nil, AuthBadVerf
		}
		return sess, AuthOK // another call on sc attached it first
	}
	sess.mu.Lock()
	sess.conns++
	sess.mu.Unlock()
	return sess, AuthOK
}

// detach ends one live connection of sess; after its last, the session
// is dropped unless a connection shows it within the grace period.
func (rc *replyCache) detach(sess *replySession) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.conns--; sess.conns > 0 {
		return
	}
	sess.idle++
	idle := sess.idle
	time.AfterFunc(cmp.Or(rc.grace, sessionGrace), func() {
		rc.mu.Lock()
		defer rc.mu.Unlock()
		sess.mu.Lock()
		defer sess.mu.Unlock()
		if sess.conns == 0 && sess.idle == idle {
			delete(rc.sessions, sess.id)
		}
	})
}

// claim decides what a session call with this xid gets; see begin. A
// call whose xid is running waits for it, or until ctx (its
// connection) ends.
func (s *replySession) claim(ctx context.Context, xid uint32) (*replySession, *xdr.Encoder) {
	sl := &s.slots[xid%GatherDepth]
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case !sl.used || int32(xid-sl.xid) > 0: // xids of a slot differ by multiples of GatherDepth
			sl.signal()
			sl.xid, sl.used, sl.done = xid, true, false
			return s, nil
		case xid != sl.xid:
			return nil, nil
		case sl.done:
			// A copy: a newer call on the slot may release the stored
			// reply while this one is still being written. A record is
			// whole XDR words, so FixedOpaque adds no padding.
			e := replyPool.Get().(*xdr.Encoder)
			e.Reset()
			e.FixedOpaque(sl.reply.Bytes())
			return nil, e
		}
		if sl.wake == nil {
			sl.wake = make(chan struct{})
		}
		wake := sl.wake
		s.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			s.mu.Lock()
			return nil, nil
		}
		s.mu.Lock()
	}
}

// finish stores the sent reply of the call xid if the slot still waits
// for it, and releases the reply it replaces.
func (s *replySession) finish(xid uint32, reply *xdr.Encoder) {
	sl := &s.slots[xid%GatherDepth]
	s.mu.Lock()
	if sl.xid != xid || sl.done {
		s.mu.Unlock()
		replyPool.Put(reply)
		return
	}
	old := sl.reply
	sl.reply = reply
	sl.done = true
	sl.signal()
	s.mu.Unlock()
	if old != nil {
		replyPool.Put(old)
	}
}
