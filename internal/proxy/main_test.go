package proxy

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package's tests if they leave goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
