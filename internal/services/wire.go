// Package services implements the SGFS management services (§3.2,
// §4.4): the File System Service (FSS) that runs on every client and
// server host and controls the local proxies, and the Data Scheduler
// Service (DSS) that schedules and customizes SGFS sessions through
// the FSSs. Service interactions travel as WS-Security-signed SOAP
// messages over HTTP (message-level security), while the data sessions
// they create use transport-level security — the paper's two-level
// architecture.
package services

import "encoding/xml"

// CreateSessionRequest asks an FSS to start a proxy session on its
// host. Credential material travels inline (the delegation step: the
// DSS forwards the user's proxy credential so the client-side proxy
// can authenticate as the user).
type CreateSessionRequest struct {
	XMLName     xml.Name `xml:"CreateSession"`
	Role        string   `xml:"Role"` // "client" or "server"
	Export      string   `xml:"Export"`
	Upstream    string   `xml:"Upstream,omitempty"` // server role: NFS server address
	Server      string   `xml:"Server,omitempty"`   // client role: server proxy address
	Suite       string   `xml:"Suite"`
	CertPEM     string   `xml:"CertPEM"`
	KeyPEM      string   `xml:"KeyPEM"`
	CAPEM       string   `xml:"CAPEM"`
	Gridmap     string   `xml:"Gridmap,omitempty"`  // server role: gridmap file content
	Accounts    string   `xml:"Accounts,omitempty"` // server role: accounts file content
	FineGrained bool     `xml:"FineGrained,omitempty"`
	DiskCache   bool     `xml:"DiskCache,omitempty"` // client role

	// Servers lists replica server-proxy addresses (client role). When
	// non-empty it supersedes Server and every server holds every file:
	// the client proxy fans every mutation out to the set, hedging reads
	// between members.
	Servers []string `xml:"Servers>Server,omitempty"`
	// Quorum is how many server acks a mutation needs (0 = a majority).
	Quorum int `xml:"Quorum,omitempty"`
	// HedgeDelayMS is the hedged-read delay in milliseconds (0 =
	// proxy default).
	HedgeDelayMS int `xml:"HedgeDelayMS,omitempty"`
}

// CreateSessionResponse reports the new session.
type CreateSessionResponse struct {
	XMLName xml.Name `xml:"CreateSessionResult"`
	ID      string   `xml:"ID"`
	Addr    string   `xml:"Addr"` // proxy listen address
}

// DestroySessionRequest tears a session down (flushing write-back
// data first for client sessions).
type DestroySessionRequest struct {
	XMLName xml.Name `xml:"DestroySession"`
	ID      string   `xml:"ID"`
}

// RekeySessionRequest forces a session-key renegotiation.
type RekeySessionRequest struct {
	XMLName xml.Name `xml:"RekeySession"`
	ID      string   `xml:"ID"`
}

// FlushSessionRequest writes back dirty cached data.
type FlushSessionRequest struct {
	XMLName xml.Name `xml:"FlushSession"`
	ID      string   `xml:"ID"`
}

// ReconfigureSessionRequest replaces a server session's gridmap.
type ReconfigureSessionRequest struct {
	XMLName xml.Name `xml:"ReconfigureSession"`
	ID      string   `xml:"ID"`
	Gridmap string   `xml:"Gridmap"`
}

// ACLEntryXML is one fine-grained ACL entry.
type ACLEntryXML struct {
	DN   string `xml:"DN"`
	Perm string `xml:"Perm"` // rwx letters or numeric mask
}

// SetACLRequest installs a fine-grained ACL on a path within a server
// session's export (the services manage per-file ACLs "through the
// server-side proxies", §4.4).
type SetACLRequest struct {
	XMLName xml.Name      `xml:"SetACL"`
	ID      string        `xml:"ID"`
	Path    string        `xml:"Path"`
	Entries []ACLEntryXML `xml:"Entry"`
}

// OKResponse acknowledges an operation.
type OKResponse struct {
	XMLName xml.Name `xml:"OK"`
	Detail  string   `xml:"Detail,omitempty"`
}

// FaultResponse reports a failure.
type FaultResponse struct {
	XMLName xml.Name `xml:"Fault"`
	Reason  string   `xml:"Reason"`
}

// --- DSS operations ---------------------------------------------------

// GrantAccessRequest (admin-only) authorizes a grid user on an export
// in the DSS database, mapping them to a local account.
type GrantAccessRequest struct {
	XMLName xml.Name `xml:"GrantAccess"`
	Export  string   `xml:"Export"`
	DN      string   `xml:"DN"`
	Account string   `xml:"Account"`
	UID     uint32   `xml:"UID"`
	GID     uint32   `xml:"GID"`
}

// RevokeAccessRequest removes an authorization.
type RevokeAccessRequest struct {
	XMLName xml.Name `xml:"RevokeAccess"`
	Export  string   `xml:"Export"`
	DN      string   `xml:"DN"`
}

// ScheduleSessionRequest (user-signed) asks the DSS to set up a full
// SGFS session on the user's behalf: server proxy via the server FSS,
// client proxy via the client FSS, gridmap generated from the DSS
// database.
type ScheduleSessionRequest struct {
	XMLName   xml.Name `xml:"ScheduleSession"`
	Export    string   `xml:"Export"`
	ServerFSS string   `xml:"ServerFSS"` // FSS endpoint on the file server
	ClientFSS string   `xml:"ClientFSS"` // FSS endpoint on the compute node
	Upstream  string   `xml:"Upstream"`  // NFS server address on the file server
	Suite     string   `xml:"Suite"`
	// Delegated proxy credential: lets the client FSS configure the
	// proxy to authenticate as the user.
	ProxyCertPEM string `xml:"ProxyCertPEM"`
	ProxyKeyPEM  string `xml:"ProxyKeyPEM"`
	DiskCache    bool   `xml:"DiskCache,omitempty"`
	FineGrained  bool   `xml:"FineGrained,omitempty"`

	// ServerFSSs schedules a replicated session: one server proxy per
	// FSS endpoint, paired element-wise with Upstreams. When non-empty
	// they supersede ServerFSS and Upstream.
	ServerFSSs []string `xml:"ServerFSSs>FSS,omitempty"`
	Upstreams  []string `xml:"Upstreams>Upstream,omitempty"`
	// Quorum is forwarded to the client proxy's replication layer
	// (0 = a majority of the servers).
	Quorum int `xml:"Quorum,omitempty"`
}

// ScheduleSessionResponse reports the established session.
type ScheduleSessionResponse struct {
	XMLName    xml.Name `xml:"ScheduleSessionResult"`
	ServerID   string   `xml:"ServerID"`
	ClientID   string   `xml:"ClientID"`
	MountAddr  string   `xml:"MountAddr"` // what the local NFS client mounts
	ServerAddr string   `xml:"ServerAddr"`

	// ServerIDs/ServerAddrs report every replica for a replicated
	// session (ServerID/ServerAddr then name the first replica).
	ServerIDs   []string `xml:"ServerIDs>ID,omitempty"`
	ServerAddrs []string `xml:"ServerAddrs>Addr,omitempty"`
}
