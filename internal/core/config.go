// Package core implements SGFS session orchestration — the logic the
// paper puts in the proxy configuration files (§4.2). It holds the one
// assembly of each side of a session (StartServer, StartClient: listen,
// disk cache, proxy, teardown, and the defaults a zero value selects),
// which the facade, the File System Service and the paper-figure
// harness all call; StartServerSession and StartClientSession put the
// declarative session configuration in front of it by loading the
// files it names. A live server session can reload its gridmap from an
// updated configuration, as a deployed proxy does when signalled to
// reload its file; nothing else is reconfigured in place.
package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/securechan"
)

// Role distinguishes the two proxy kinds.
type Role string

// Session roles.
const (
	RoleClient Role = "client"
	RoleServer Role = "server"
)

// Config is a session configuration, the in-memory form of an SGFS
// proxy configuration file.
type Config struct {
	// Role selects client- or server-side behaviour.
	Role Role
	// Export is the exported file system path (e.g. /GFS/alice).
	Export string
	// Listen is the address the proxy serves on.
	Listen string
	// Server is the server-side proxy address (client role only).
	Server string
	// Upstream is the NFS server address (server role only).
	Upstream string

	// Servers lists replica server-proxy addresses (client role). When
	// non-empty it supersedes Server: the session replicates writes
	// across the set and hedges reads between members.
	Servers []string
	// Replicas (k) is how many replicas hold each block; 0 means all
	// servers.
	Replicas int
	// Quorum is how many replica acks a write needs before it is
	// acknowledged; 0 means a majority of Replicas.
	Quorum int
	// HedgeDelay is how long a replicated read waits on the first
	// replica before hedging to the next (0 = proxy default).
	HedgeDelay time.Duration

	// Security names the channel suite: one of the securechan suite
	// names, or "none" for a gfs-style insecure session.
	Security string
	// CertPath, KeyPath and CAPath locate the session credentials.
	CertPath, KeyPath, CAPath string
	// RekeyInterval enables periodic renegotiation when positive.
	RekeyInterval time.Duration

	// GridmapPath locates the session gridmap (server role).
	GridmapPath string
	// AccountsPath locates the local accounts table (server role);
	// lines of "name uid gid [gid...]".
	AccountsPath string
	// FineGrained enables per-file ACL checks (server role).
	FineGrained bool
	// AnonymousOK maps unknown DNs to the anonymous account instead of
	// denying them.
	AnonymousOK bool

	// CacheDir enables the disk cache when non-empty (client role).
	CacheDir string
	// CacheBytes bounds the disk cache (0 = the default, 4 GiB).
	CacheBytes int64
	// BlockSize is the cache block size (0 = the default, 32 KiB).
	BlockSize int
}

// Secure reports whether the session uses a protected channel.
func (c *Config) Secure() bool { return c.Security != "" && c.Security != "none" }

// Suite resolves the configured suite name.
func (c *Config) Suite() (securechan.Suite, error) {
	return securechan.ParseSuite(c.Security)
}

// Validate checks cross-field requirements.
func (c *Config) Validate() error {
	switch c.Role {
	case RoleClient:
		if c.Server == "" && len(c.Servers) == 0 {
			return fmt.Errorf("core: client session requires server address(es)")
		}
		if n := len(c.Servers); n > 0 {
			if c.Replicas > n {
				return fmt.Errorf("core: replicas (%d) exceeds server count (%d)", c.Replicas, n)
			}
			k := c.Replicas
			if k == 0 {
				k = n
			}
			if c.Quorum > k {
				return fmt.Errorf("core: quorum (%d) exceeds replicas (%d)", c.Quorum, k)
			}
		} else if c.Replicas > 0 || c.Quorum > 0 || c.HedgeDelay > 0 {
			return fmt.Errorf("core: replication settings require a servers list")
		}
	case RoleServer:
		if c.Upstream == "" {
			return fmt.Errorf("core: server session requires upstream NFS address")
		}
		if c.Secure() && c.GridmapPath == "" {
			return fmt.Errorf("core: secure server session requires a gridmap")
		}
	default:
		return fmt.Errorf("core: role must be client or server, got %q", c.Role)
	}
	if c.Export == "" {
		return fmt.Errorf("core: session requires an export path")
	}
	if c.BlockSize < 0 || c.CacheBytes < 0 {
		return fmt.Errorf("core: block_size (%d) and cache_size (%d) must not be negative", c.BlockSize, c.CacheBytes)
	}
	if c.Secure() {
		if _, err := c.Suite(); err != nil {
			return err
		}
		if c.CertPath == "" || c.KeyPath == "" || c.CAPath == "" {
			return fmt.Errorf("core: secure session requires cert, key and ca paths")
		}
	}
	return nil
}

// Parse reads a configuration in "key = value" form. Unknown keys are
// rejected so typos fail loudly.
func Parse(r io.Reader) (*Config, error) {
	cfg := &Config{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("core: line %d: expected key = value", lineNo)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if err := cfg.set(key, val); err != nil {
			return nil, fmt.Errorf("core: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Load reads and validates a configuration file.
func Load(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

func (c *Config) set(key, val string) error {
	switch key {
	case "role":
		c.Role = Role(val)
	case "export":
		c.Export = val
	case "listen":
		c.Listen = val
	case "server":
		c.Server = val
	case "servers":
		c.Servers = nil
		for _, s := range strings.Split(val, ",") {
			if s = strings.TrimSpace(s); s != "" {
				c.Servers = append(c.Servers, s)
			}
		}
	case "replicas":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("replicas: %w", err)
		}
		c.Replicas = n
	case "quorum":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("quorum: %w", err)
		}
		c.Quorum = n
	case "hedge_delay":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("hedge_delay: %w", err)
		}
		c.HedgeDelay = d
	case "upstream":
		c.Upstream = val
	case "security":
		c.Security = val
	case "cert":
		c.CertPath = val
	case "key":
		c.KeyPath = val
	case "ca":
		c.CAPath = val
	case "gridmap":
		c.GridmapPath = val
	case "accounts":
		c.AccountsPath = val
	case "fine_grained":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("fine_grained: %w", err)
		}
		c.FineGrained = b
	case "anonymous_ok":
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("anonymous_ok: %w", err)
		}
		c.AnonymousOK = b
	case "disk_cache":
		c.CacheDir = val
	case "cache_size":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("cache_size: %w", err)
		}
		c.CacheBytes = n
	case "block_size":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("block_size: %w", err)
		}
		c.BlockSize = n
	case "rekey_interval":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("rekey_interval: %w", err)
		}
		c.RekeyInterval = d
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// Serialize renders the configuration in file form.
func (c *Config) Serialize() []byte {
	var b strings.Builder
	put := func(k, v string) {
		if v != "" {
			fmt.Fprintf(&b, "%s = %s\n", k, v)
		}
	}
	put("role", string(c.Role))
	put("export", c.Export)
	put("listen", c.Listen)
	put("server", c.Server)
	put("servers", strings.Join(c.Servers, ","))
	if c.Replicas > 0 {
		put("replicas", strconv.Itoa(c.Replicas))
	}
	if c.Quorum > 0 {
		put("quorum", strconv.Itoa(c.Quorum))
	}
	if c.HedgeDelay > 0 {
		put("hedge_delay", c.HedgeDelay.String())
	}
	put("upstream", c.Upstream)
	put("security", c.Security)
	put("cert", c.CertPath)
	put("key", c.KeyPath)
	put("ca", c.CAPath)
	put("gridmap", c.GridmapPath)
	put("accounts", c.AccountsPath)
	if c.FineGrained {
		put("fine_grained", "true")
	}
	if c.AnonymousOK {
		put("anonymous_ok", "true")
	}
	put("disk_cache", c.CacheDir)
	if c.CacheBytes != 0 {
		put("cache_size", strconv.FormatInt(c.CacheBytes, 10))
	}
	if c.BlockSize != 0 {
		put("block_size", strconv.Itoa(c.BlockSize))
	}
	if c.RekeyInterval > 0 {
		put("rekey_interval", c.RekeyInterval.String())
	}
	return []byte(b.String())
}
