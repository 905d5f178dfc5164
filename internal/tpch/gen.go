// Package tpch generates the TPC-H subset the paper evaluates (Q3, Q4 and
// Q10 touch CUSTOMER, ORDERS, LINEITEM, NATION and REGION) and implements
// distributed physical plans for those queries on the simulated cluster.
//
// As in the paper's setup, every tuple of every table is distributed to a
// random node, except NATION and REGION which are replicated everywhere,
// and unused columns are pre-projected away by the plans, as a column store
// would. A co-partitioned layout (orders and lineitem partitioned by order
// key) is also available for the paper's "local data" baseline plans.
package tpch

import (
	"fmt"

	"rshuffle/internal/engine"
)

// Column indices of the generated tables.
const (
	// CUSTOMER
	CCustKey = iota
	CMktSegment
	CNationKey
	CAcctBal
	CName
	CAddress
	CPhone
	CComment
)

const (
	// ORDERS
	OOrderKey = iota
	OCustKey
	OOrderDate
	OShipPriority
	OOrderPriority
)

const (
	// LINEITEM
	LOrderKey = iota
	LExtendedPrice
	LDiscount
	LShipDate
	LCommitDate
	LReceiptDate
	LReturnFlag
)

const (
	// NATION
	NNationKey = iota
	NName
	NRegionKey
)

// Schemas of the generated tables.
var (
	CustomerSchema = engine.NewSchema(
		engine.TInt64, engine.TInt64, engine.TInt64, engine.TFloat64,
		engine.TStr32, engine.TStr32, engine.TStr16, engine.TStr32)
	OrdersSchema = engine.NewSchema(
		engine.TInt64, engine.TInt64, engine.TInt64, engine.TInt64, engine.TStr16)
	LineitemSchema = engine.NewSchema(
		engine.TInt64, engine.TFloat64, engine.TFloat64,
		engine.TInt64, engine.TInt64, engine.TInt64, engine.TInt64)
	NationSchema = engine.NewSchema(engine.TInt64, engine.TStr16, engine.TInt64)
)

// Mktsegment codes 0..4; "BUILDING" is the segment Q3 filters on.
const (
	SegAutomobile = iota
	SegBuilding
	SegFurniture
	SegMachinery
	SegHousehold
)

// Priorities are the five TPC-H order priorities.
var Priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"}

// ReturnFlagR is the l_returnflag code Q10 filters on.
const ReturnFlagR = 1

// Date returns days since 1992-01-01 for a date in the TPC-H range.
func Date(y, m, d int) int64 {
	days := int64(0)
	for yy := 1992; yy < y; yy++ {
		days += 365
		if leap(yy) {
			days++
		}
	}
	mdays := [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	for mm := 1; mm < m; mm++ {
		days += int64(mdays[mm-1])
		if mm == 2 && leap(y) {
			days++
		}
	}
	return days + int64(d-1)
}

func leap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// Layout selects how rows are placed on nodes.
type Layout int

const (
	// Random sends every tuple to a random node (the paper's setup).
	Random Layout = iota
	// CoPartitioned places orders and lineitem rows by hash of the order
	// key and customers by customer key, enabling the "local data" plans.
	CoPartitioned
)

// DB is one generated, distributed TPC-H database.
type DB struct {
	SF     float64
	Nodes  int
	Layout Layout

	Customer, Orders, Lineitem []*engine.Table // one fragment per node
	Nation, Region             *engine.Table   // replicated

	// Totals for sanity checks.
	NCustomer, NOrders, NLineitem int
}

// rng is a splitmix64 stream.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
func (r *rng) intn(n int) int         { return int(r.next() % uint64(n)) }
func (r *rng) rangeI(lo, hi int) int  { return lo + r.intn(hi-lo+1) }
func (r *rng) f64() float64           { return float64(r.next()>>11) / (1 << 53) }
func partKey(h uint64, nodes int) int { return int((h * 0x9E3779B97F4A7C15 >> 17) % uint64(nodes)) }

// Generate builds a database at the given scale factor across nodes.
// Row counts follow TPC-H proportions (150k customers, 1.5M orders, ~6M
// lineitems per unit of scale factor).
func Generate(sf float64, nodes int, layout Layout, seed int64) *DB {
	db := &DB{SF: sf, Nodes: nodes, Layout: layout}
	db.Customer = make([]*engine.Table, nodes)
	db.Orders = make([]*engine.Table, nodes)
	db.Lineitem = make([]*engine.Table, nodes)
	r := &rng{x: uint64(seed)*2654435761 + 1}

	nCust := int(150_000 * sf)
	if nCust < 10 {
		nCust = 10
	}
	nOrders := 10 * nCust

	// Rows land on nodes at random, so a fragment's size is known only in
	// expectation: reserve an even share plus an eighth, which the spread
	// stays inside at any scale worth generating; a fragment that outgrows
	// it falls back to Append's doubling. Orders carry four lineitems on
	// average.
	share := func(total int) int { per := total / nodes; return per + per/8 + 64 }
	for i := 0; i < nodes; i++ {
		db.Customer[i] = engine.NewTable(CustomerSchema).Grow(share(nCust))
		db.Orders[i] = engine.NewTable(OrdersSchema).Grow(share(nOrders))
		db.Lineitem[i] = engine.NewTable(LineitemSchema).Grow(share(4 * nOrders))
	}

	// CUSTOMER.
	for ck := 1; ck <= nCust; ck++ {
		node := r.intn(nodes)
		if layout == CoPartitioned {
			node = partKey(uint64(ck), nodes)
		}
		w := engine.NewWriter(db.Customer[node])
		w.SetInt64(CCustKey, int64(ck))
		w.SetInt64(CMktSegment, int64(r.intn(5)))
		w.SetInt64(CNationKey, int64(r.intn(25)))
		w.SetFloat64(CAcctBal, -999.99+r.f64()*10999.98)
		w.SetStr(CName, fmt.Sprintf("Customer#%09d", ck))
		w.SetStr(CAddress, addr(r))
		w.SetStr(CPhone, fmt.Sprintf("%02d-%03d-%03d", 10+r.intn(25), r.intn(1000), r.intn(1000)))
		w.SetStr(CComment, comment(r))
		w.Done()
		db.NCustomer++
	}

	// ORDERS and LINEITEM. Order keys are sparse as in TPC-H.
	lastDate := int(Date(1998, 8, 2))
	for i := 1; i <= nOrders; i++ {
		ok := int64(i*8 - 7)
		node := r.intn(nodes)
		if layout == CoPartitioned {
			node = partKey(uint64(ok), nodes)
		}
		odate := int64(r.intn(lastDate - 151))
		w := engine.NewWriter(db.Orders[node])
		w.SetInt64(OOrderKey, ok)
		w.SetInt64(OCustKey, int64(1+r.intn(nCust)))
		w.SetInt64(OOrderDate, odate)
		w.SetInt64(OShipPriority, 0)
		w.SetStr(OOrderPriority, Priorities[r.intn(5)])
		w.Done()
		db.NOrders++

		nl := 1 + r.intn(7)
		for j := 0; j < nl; j++ {
			lnode := r.intn(nodes)
			if layout == CoPartitioned {
				lnode = partKey(uint64(ok), nodes)
			}
			ship := odate + int64(r.rangeI(1, 121))
			lw := engine.NewWriter(db.Lineitem[lnode])
			lw.SetInt64(LOrderKey, ok)
			lw.SetFloat64(LExtendedPrice, 901.0+r.f64()*104049.0)
			lw.SetFloat64(LDiscount, float64(r.intn(11))/100)
			lw.SetInt64(LShipDate, ship)
			lw.SetInt64(LCommitDate, odate+int64(r.rangeI(30, 90)))
			lw.SetInt64(LReceiptDate, ship+int64(r.rangeI(1, 30)))
			flag := int64(0)
			if ship+int64(r.rangeI(1, 30)) <= Date(1995, 6, 17) && r.intn(2) == 0 {
				flag = ReturnFlagR
			}
			lw.SetInt64(LReturnFlag, flag)
			lw.Done()
			db.NLineitem++
		}
	}

	// NATION and REGION, replicated (only 25 and 5 rows).
	db.Nation = engine.NewTable(NationSchema)
	for nk := 0; nk < 25; nk++ {
		w := engine.NewWriter(db.Nation)
		w.SetInt64(NNationKey, int64(nk))
		w.SetStr(NName, fmt.Sprintf("NATION %02d", nk))
		w.SetInt64(NRegionKey, int64(nk%5))
		w.Done()
	}
	db.Region = engine.NewTable(engine.NewSchema(engine.TInt64, engine.TStr16))
	for rk := 0; rk < 5; rk++ {
		w := engine.NewWriter(db.Region)
		w.SetInt64(0, int64(rk))
		w.SetStr(1, fmt.Sprintf("REGION %d", rk))
		w.Done()
	}
	return db
}

var addrParts = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"}

func addr(r *rng) string {
	return fmt.Sprintf("%d %s %s st", r.intn(9999), addrParts[r.intn(8)], addrParts[r.intn(8)])
}

func comment(r *rng) string {
	return addrParts[r.intn(8)] + " " + addrParts[r.intn(8)] + " " + addrParts[r.intn(8)]
}

// Bytes returns the database's total payload size across all nodes.
func (db *DB) Bytes() int64 {
	var total int64
	for i := 0; i < db.Nodes; i++ {
		total += int64(db.Customer[i].Bytes() + db.Orders[i].Bytes() + db.Lineitem[i].Bytes())
	}
	return total
}
