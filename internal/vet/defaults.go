package vet

// LockIOPackages are the concurrent hot paths where holding a mutex
// across transport I/O is either a deadlock or a throughput cliff.
var LockIOPackages = []string{
	"repro/internal/oncrpc",
	"repro/internal/proxy",
	"repro/internal/securechan",
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
		GoroutineLeak{},
		SecretFlow{},
		UnboundedAlloc{},
		WeakRand{},
		ResourceLeak{},
	}
}
