package vet

// LockIOPackages are the concurrent hot paths where holding a mutex
// across transport I/O is either a deadlock or a throughput cliff.
var LockIOPackages = []string{
	"repro/internal/oncrpc",
	"repro/internal/proxy",
	"repro/internal/securechan",
}

// CtxDeadlinePackages are where upstream RPCs are issued; a missing
// deadline there wedges a session on a half-dead WAN link. The
// obligation propagation still sees the whole module — this only
// limits where findings are reported.
var CtxDeadlinePackages = []string{
	"repro/internal/oncrpc",
	"repro/internal/proxy",
	"repro/internal/sfs",
	"repro/internal/nfsclient",
	"repro/internal/core",
}

// DefaultAnalyzers returns the full analyzer suite with the
// repository's package scoping, in reporting order. The CLI and the
// repo-clean regression test share this list so they cannot drift.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		LockOverIO{Packages: LockIOPackages},
		LocksetRace{},
		PoolLifecycle{},
		AtomicMisuse{},
		SwallowedError{},
		LockOrder{},
		CtxDeadline{Packages: CtxDeadlinePackages},
		GoroutineLeak{},
		ReplayTableSync{},
		SecretFlow{},
		UnboundedAlloc{},
		WeakRand{},
		ResourceLeak{},
		RetrySafety{},
	}
}
