// Package pooltest is for TestMain functions only: it keeps package testing
// out of bufpool's importers.
package pooltest

import (
	"flag"
	"os"
	"testing"

	"rshuffle/internal/bufpool"
)

// Main runs a package's tests with the buffer pool poisoning whatever is
// handed back to it: a row, table, ring chunk or datagram read after its
// owner returned it, or read where nobody wrote, then differs from every
// golden and oracle instead of passing on stale or zero bytes. Calling it
// from TestMain, rather than switching the poison on in one test, means
// -shuffle cannot reorder it away.
//
// Not under -bench: the fill is most of what a Put costs.
func Main(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		bufpool.PoisonForTest()
	}
	os.Exit(m.Run())
}
