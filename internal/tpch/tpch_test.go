package tpch

import (
	"math"
	"sort"
	"testing"

	"rshuffle/internal/cluster"
	"rshuffle/internal/engine"
	"rshuffle/internal/fabric"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
)

func quiet() fabric.Profile {
	p := fabric.EDR()
	p.UDReorderProb = 0
	return p
}

func testFactory() cluster.ProviderFactory {
	return cluster.RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 14})
}

// runQuery executes query q through its DAG plan and fails the test on any
// planning or transport error.
func runQuery(t *testing.T, c *cluster.Cluster, db *DB, q int, f cluster.ProviderFactory, local bool) *QueryResult {
	t.Helper()
	res, _, err := Run(c, db, q, f, local)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("Q%d: %v", q, res.Err)
	}
	return res
}

func TestDateArithmetic(t *testing.T) {
	if Date(1992, 1, 1) != 0 {
		t.Fatalf("epoch = %d", Date(1992, 1, 1))
	}
	if Date(1992, 3, 1) != 60 { // 1992 is a leap year
		t.Fatalf("1992-03-01 = %d, want 60", Date(1992, 3, 1))
	}
	if Date(1993, 1, 1) != 366 {
		t.Fatalf("1993-01-01 = %d, want 366", Date(1993, 1, 1))
	}
	if d := Date(1998, 8, 2) - Date(1998, 7, 2); d != 31 {
		t.Fatalf("july length = %d", d)
	}
}

func TestGenerateProportions(t *testing.T) {
	db := Generate(0.01, 4, Random, 1)
	if db.NCustomer != 1500 {
		t.Fatalf("customers = %d, want 1500", db.NCustomer)
	}
	if db.NOrders != 15000 {
		t.Fatalf("orders = %d, want 15000", db.NOrders)
	}
	if db.NLineitem < 3*db.NOrders || db.NLineitem > 5*db.NOrders {
		t.Fatalf("lineitems = %d, want ~4 per order", db.NLineitem)
	}
	var rows int
	for i := 0; i < 4; i++ {
		rows += db.Orders[i].N
	}
	if rows != db.NOrders {
		t.Fatalf("distributed orders = %d, want %d", rows, db.NOrders)
	}
	if db.Nation.N != 25 || db.Region.N != 5 {
		t.Fatal("nation/region cardinality wrong")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(0.005, 2, Random, 7)
	b := Generate(0.005, 2, Random, 7)
	for i := 0; i < 2; i++ {
		if string(a.Orders[i].Data) != string(b.Orders[i].Data) {
			t.Fatal("generation is not deterministic")
		}
	}
}

func TestCoPartitionedLayout(t *testing.T) {
	db := Generate(0.005, 4, CoPartitioned, 3)
	// Every lineitem must reside with its order.
	orderNode := map[int64]int{}
	for node := 0; node < 4; node++ {
		tb := db.Orders[node]
		for i := 0; i < tb.N; i++ {
			orderNode[engine.RowInt64(tb.Sch, tb.Row(i), OOrderKey)] = node
		}
	}
	for node := 0; node < 4; node++ {
		tb := db.Lineitem[node]
		for i := 0; i < tb.N; i++ {
			ok := engine.RowInt64(tb.Sch, tb.Row(i), LOrderKey)
			if orderNode[ok] != node {
				t.Fatalf("lineitem of order %d on node %d, order on node %d",
					ok, node, orderNode[ok])
			}
		}
	}
}

// refQ4 computes Q4 by direct iteration.
func refQ4(db *DB) map[string]float64 {
	late := map[int64]bool{}
	for node := 0; node < db.Nodes; node++ {
		tb := db.Lineitem[node]
		for i := 0; i < tb.N; i++ {
			row := tb.Row(i)
			if engine.RowInt64(tb.Sch, row, LCommitDate) < engine.RowInt64(tb.Sch, row, LReceiptDate) {
				late[engine.RowInt64(tb.Sch, row, LOrderKey)] = true
			}
		}
	}
	out := map[string]float64{}
	lo, hi := Date(1993, 7, 1), Date(1993, 10, 1)
	for node := 0; node < db.Nodes; node++ {
		tb := db.Orders[node]
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			d := b.Int64(0, OOrderDate)
			if d >= lo && d < hi && late[b.Int64(0, OOrderKey)] {
				out[b.Str(0, OOrderPriority)]++
			}
		}
	}
	return out
}

func TestQ4MatchesReference(t *testing.T) {
	for _, layout := range []Layout{Random, CoPartitioned} {
		db := Generate(0.01, 4, layout, 11)
		want := refQ4(db)
		c := cluster.New(quiet(), 4, 4, 5)
		res := runQuery(t, c, db, 4, testFactory(), layout == CoPartitioned)
		if int(res.Rows) != len(want) {
			t.Fatalf("layout %v: %d priorities, want %d", layout, res.Rows, len(want))
		}
		tb := res.Result
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			prio := b.Str(0, 0)
			cnt := b.Float64(0, 1)
			if cnt != want[prio] {
				t.Fatalf("layout %v: %s count = %v, want %v", layout, prio, cnt, want[prio])
			}
		}
		// Result must be ordered by priority ascending.
		for i := 1; i < tb.N; i++ {
			a := engine.Batch{Sch: tb.Sch, Data: tb.Row(i - 1), N: 1}
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			if a.Str(0, 0) > b.Str(0, 0) {
				t.Fatal("Q4 result not sorted by priority")
			}
		}
	}
}

// refQ3 computes Q3's top-10 by direct iteration.
type q3row struct {
	okey, odate, ship int64
	rev               float64
}

func refQ3(db *DB) []q3row {
	building := map[int64]bool{}
	for node := 0; node < db.Nodes; node++ {
		tb := db.Customer[node]
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			if b.Int64(0, CMktSegment) == SegBuilding {
				building[b.Int64(0, CCustKey)] = true
			}
		}
	}
	type okeyInfo struct{ odate, ship int64 }
	orders := map[int64]okeyInfo{}
	cutoff := Date(1995, 3, 15)
	for node := 0; node < db.Nodes; node++ {
		tb := db.Orders[node]
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			if b.Int64(0, OOrderDate) < cutoff && building[b.Int64(0, OCustKey)] {
				orders[b.Int64(0, OOrderKey)] = okeyInfo{b.Int64(0, OOrderDate), b.Int64(0, OShipPriority)}
			}
		}
	}
	rev := map[int64]float64{}
	for node := 0; node < db.Nodes; node++ {
		tb := db.Lineitem[node]
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			ok := b.Int64(0, LOrderKey)
			if _, hit := orders[ok]; hit && b.Int64(0, LShipDate) > cutoff {
				rev[ok] += b.Float64(0, LExtendedPrice) * (1 - b.Float64(0, LDiscount))
			}
		}
	}
	var rows []q3row
	for ok, r := range rev {
		info := orders[ok]
		rows = append(rows, q3row{ok, info.odate, info.ship, r})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].rev != rows[j].rev {
			return rows[i].rev > rows[j].rev
		}
		return rows[i].odate < rows[j].odate
	})
	if len(rows) > 10 {
		rows = rows[:10]
	}
	return rows
}

func TestQ3MatchesReference(t *testing.T) {
	db := Generate(0.01, 4, Random, 13)
	want := refQ3(db)
	c := cluster.New(quiet(), 4, 4, 5)
	res := runQuery(t, c, db, 3, testFactory(), false)
	if int(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", res.Rows, len(want))
	}
	tb := res.Result
	for i := 0; i < tb.N; i++ {
		b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
		if b.Int64(0, 0) != want[i].okey {
			t.Fatalf("row %d: okey = %d, want %d", i, b.Int64(0, 0), want[i].okey)
		}
		if math.Abs(b.Float64(0, 3)-want[i].rev) > 1e-6*math.Abs(want[i].rev) {
			t.Fatalf("row %d: rev = %v, want %v", i, b.Float64(0, 3), want[i].rev)
		}
	}
}

// refQ10 computes Q10's top-20 revenue by custkey.
func refQ10(db *DB) []float64 {
	lo, hi := Date(1993, 10, 1), Date(1994, 1, 1)
	orderCust := map[int64]int64{}
	for node := 0; node < db.Nodes; node++ {
		tb := db.Orders[node]
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			d := b.Int64(0, OOrderDate)
			if d >= lo && d < hi {
				orderCust[b.Int64(0, OOrderKey)] = b.Int64(0, OCustKey)
			}
		}
	}
	rev := map[int64]float64{}
	for node := 0; node < db.Nodes; node++ {
		tb := db.Lineitem[node]
		for i := 0; i < tb.N; i++ {
			b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
			ck, hit := orderCust[b.Int64(0, LOrderKey)]
			if hit && b.Int64(0, LReturnFlag) == ReturnFlagR {
				rev[ck] += b.Float64(0, LExtendedPrice) * (1 - b.Float64(0, LDiscount))
			}
		}
	}
	var revs []float64
	for _, r := range rev {
		revs = append(revs, r)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(revs)))
	if len(revs) > 20 {
		revs = revs[:20]
	}
	return revs
}

func TestQ10MatchesReference(t *testing.T) {
	db := Generate(0.01, 4, Random, 17)
	want := refQ10(db)
	c := cluster.New(quiet(), 4, 4, 5)
	res := runQuery(t, c, db, 10, testFactory(), false)
	if int(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", res.Rows, len(want))
	}
	tb := res.Result
	for i := 0; i < tb.N; i++ {
		b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
		got := b.Float64(0, 7)
		if math.Abs(got-want[i]) > 1e-6*math.Abs(want[i]) {
			t.Fatalf("row %d: rev = %v, want %v", i, got, want[i])
		}
		if b.Str(0, 6) == "" {
			t.Fatalf("row %d: nation name missing", i)
		}
	}
}

func TestQ4MPIAndLocalOrdering(t *testing.T) {
	// MESQ/SR should beat MPI on Q4, and the co-partitioned local plan
	// should be fastest (nothing to shuffle but the final gather).
	db := Generate(0.02, 4, Random, 11)
	dbLocal := Generate(0.02, 4, CoPartitioned, 11)

	rdma := runQuery(t, cluster.New(quiet(), 4, 0, 5), db, 4, testFactory(), false)
	mpiRes := runQuery(t, cluster.New(quiet(), 4, 0, 5), db, 4, cluster.MPIProvider(), false)
	local := runQuery(t, cluster.New(quiet(), 4, 0, 5), dbLocal, 4, testFactory(), true)
	t.Logf("Q4: local=%v MESQ/SR=%v MPI=%v", local.Elapsed, rdma.Elapsed, mpiRes.Elapsed)
	if !(local.Elapsed <= rdma.Elapsed && rdma.Elapsed < mpiRes.Elapsed) {
		t.Fatalf("ordering violated: local=%v rdma=%v mpi=%v",
			local.Elapsed, rdma.Elapsed, mpiRes.Elapsed)
	}
}

func ipoibCfg() ipoib.Config { return ipoib.Config{} }

// TestQ4AllTransportsAgree runs Q4 over five transports and checks they
// produce identical results.
func TestQ4AllTransportsAgree(t *testing.T) {
	db := Generate(0.01, 4, Random, 23)
	want := refQ4(db)
	factories := map[string]cluster.ProviderFactory{
		"MESQ/SR": cluster.RDMAProvider(shuffle.Config{Impl: shuffle.SQSR, Endpoints: 4}),
		"MEMQ/RD": cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQRD, Endpoints: 4}),
		"MEMQ/WR": cluster.RDMAProvider(shuffle.Config{Impl: shuffle.MQWR, Endpoints: 4}),
		"MPI":     cluster.MPIProvider(),
		"IPoIB":   cluster.IPoIBProvider(ipoibCfg()),
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			res := runQuery(t, cluster.New(quiet(), 4, 4, 5), db, 4, f, false)
			if int(res.Rows) != len(want) {
				t.Fatalf("%d rows, want %d", res.Rows, len(want))
			}
			tb := res.Result
			for i := 0; i < tb.N; i++ {
				b := engine.Batch{Sch: tb.Sch, Data: tb.Row(i), N: 1}
				if b.Float64(0, 1) != want[b.Str(0, 0)] {
					t.Fatalf("%s = %v, want %v", b.Str(0, 0), b.Float64(0, 1), want[b.Str(0, 0)])
				}
			}
		})
	}
}
