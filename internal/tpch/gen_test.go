package tpch

import (
	"fmt"
	"hash/fnv"
	"testing"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/engine"
)

// TestGeneratedTablesPinned holds every table generator to the bytes it
// produced before the generators presized their tables (hashes taken at
// 3f0c6d1): reserving capacity up front must not change a single row.
func TestGeneratedTablesPinned(t *testing.T) {
	sum := func(ts ...*engine.Table) string {
		f := fnv.New64a()
		for _, tab := range ts {
			f.Write(tab.Data)
			fmt.Fprintf(f, "|%d|", tab.N)
		}
		return fmt.Sprintf("%#x", f.Sum64())
	}
	db := func(l Layout) string {
		d := Generate(0.01, 3, l, 5)
		var ts []*engine.Table
		ts = append(ts, d.Customer...)
		ts = append(ts, d.Orders...)
		ts = append(ts, d.Lineitem...)
		return sum(append(ts, d.Nation, d.Region)...)
	}
	fact, dim := dag.DemoTables(3, 2000, 250, 7)
	for _, c := range []struct{ name, got, want string }{
		{"SyntheticTableWide", sum(cluster.SyntheticTableWide(3, 5000, 32)), "0xf740369aae0a0b49"},
		{"DemoTables", sum(append(fact, dim...)...), "0x9b5b7acbef0f574e"},
		{"Generate/CoPartitioned", db(CoPartitioned), "0x5d084a6369294852"},
		{"Generate/Random", db(Random), "0xb401180413b72698"},
	} {
		if c.got != c.want {
			t.Errorf("%s: table bytes hash to %s, want %s", c.name, c.got, c.want)
		}
	}
}
