package engine

import (
	"testing"

	"rshuffle/internal/bufpool/pooltest"
)

// TestMain: every test of the package runs against a poisoning buffer pool.
func TestMain(m *testing.M) { pooltest.Main(m) }
