package sieve

import (
	"testing"

	"aspectpar/internal/leakcheck"
)

// TestMain fails the package when a test leaves one of its goroutines running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
