// Declarative TPC-H plans over the DAG execution graph. Each PlanQ*
// expresses the query's operator trees, partition keys, and exchange
// patterns as stages and typed edges: the planner detects
// broadcast/hash/forward edges from the stage shapes, and the gathering
// final fragment falls out of a parallelism-1 stage. Result tables and
// response times are pinned by the golden values in dag_test.go, and the
// result rows by the direct-iteration oracles in tpch_test.go.
package tpch

import (
	"fmt"
	"math"

	"rshuffle/internal/cluster"
	"rshuffle/internal/dag"
	"rshuffle/internal/engine"
	"rshuffle/internal/ipoib"
	"rshuffle/internal/shuffle"
	"rshuffle/internal/sim"
)

// QueryResult reports one distributed query execution.
type QueryResult struct {
	// Elapsed is the query response time, measured after all transports are
	// connected (the paper reports Fig. 12 setup costs separately).
	Elapsed sim.Duration
	// Result holds the final rows, gathered on node 0.
	Result *engine.Table
	// Rows is the result cardinality.
	Rows int64
	// Err is the first transport error observed.
	Err error
}

// revenue is the TPC-H revenue expression sum(l_extendedprice*(1-l_discount))
// over the given price and discount columns.
func revenue(priceCol, discCol int) engine.AggSpec {
	return engine.AggSpec{Kind: engine.AggSum, Eval: func(b *engine.Batch, i int) float64 {
		return b.Float64(i, priceCol) * (1 - b.Float64(i, discCol))
	}}
}

func sumCol(col int) engine.AggSpec {
	return engine.AggSpec{Kind: engine.AggSum, Eval: func(b *engine.Batch, i int) float64 {
		return b.Float64(i, col)
	}}
}

func f64(bits int64) float64 {
	return math.Float64frombits(uint64(bits))
}

// TransportFactory maps a transport name — the -transport vocabulary of
// cmd/tpchq, also used by the examples — to a provider factory for the
// given worker thread count (the ME endpoint count).
func TransportFactory(name string, threads int) (cluster.ProviderFactory, error) {
	rdma := func(impl shuffle.Impl, endpoints int) (cluster.ProviderFactory, error) {
		return cluster.RDMAProvider(shuffle.Config{Impl: impl, Endpoints: endpoints}), nil
	}
	switch name {
	case "mesq":
		return rdma(shuffle.SQSR, threads)
	case "sesq":
		return rdma(shuffle.SQSR, 1)
	case "memq":
		return rdma(shuffle.MQSR, threads)
	case "semq":
		return rdma(shuffle.MQSR, 1)
	case "memq-rd":
		return rdma(shuffle.MQRD, threads)
	case "semq-rd":
		return rdma(shuffle.MQRD, 1)
	case "memq-wr":
		return rdma(shuffle.MQWR, threads)
	case "semq-wr":
		return rdma(shuffle.MQWR, 1)
	case "mpi":
		return cluster.MPIProvider(), nil
	case "ipoib":
		return cluster.IPoIBProvider(ipoib.Config{}), nil
	}
	return nil, fmt.Errorf("tpch: unknown transport %q", name)
}

// Run executes TPC-H query q (3, 4, or 10) through the DAG planner —
// the default execution path of cmd/tpchq and the examples. local selects
// Q4's co-partitioned variant.
func Run(c *cluster.Cluster, db *DB, q int, f cluster.ProviderFactory, local bool) (*QueryResult, *dag.Result, error) {
	if local && q != 4 {
		return nil, nil, fmt.Errorf("tpch: -local is only meaningful for Q4")
	}
	var g *dag.Graph
	switch q {
	case 3:
		g = PlanQ3(db)
	case 4:
		g = PlanQ4(db, local)
	case 10:
		g = PlanQ10(db)
	default:
		return nil, nil, fmt.Errorf("tpch: query must be 3, 4 or 10")
	}
	r := g.Run(c, f)
	return &QueryResult{Elapsed: r.Elapsed, Result: r.Result, Rows: r.Rows, Err: r.Err}, r, nil
}

// q4OrdersIn is the filtered, projected ORDERS scan of Q4.
func q4OrdersIn(db *DB, node int) engine.Operator {
	return &engine.Project{
		In: &engine.Filter{
			In: &engine.Scan{T: db.Orders[node]},
			Pred: func(b *engine.Batch, i int) bool {
				d := b.Int64(i, OOrderDate)
				return d >= Date(1993, 7, 1) && d < Date(1993, 10, 1)
			},
		},
		Cols: []int{OOrderKey, OOrderPriority},
	}
}

// q4LineIn is the late-lineitem scan of Q4.
func q4LineIn(db *DB, node int) engine.Operator {
	return &engine.Project{
		In: &engine.Filter{
			In: &engine.Scan{T: db.Lineitem[node]},
			Pred: func(b *engine.Batch, i int) bool {
				return b.Int64(i, LCommitDate) < b.Int64(i, LReceiptDate)
			},
		},
		Cols: []int{LOrderKey},
	}
}

// PlanQ4 builds TPC-H Q4 as a DAG. The distributed variant broadcasts the
// filtered ORDERS columns into a semi join against local LINEITEM
// (replicated edge → Broadcast), deduplicates matched orders with a hash
// edge, and gathers per-priority counts on a parallelism-1 final stage.
// The local variant drops both redistribution edges: the semi join runs
// on co-partitioned data and chains forward into the per-priority count.
func PlanQ4(db *DB, local bool) *dag.Graph {
	g := dag.New()
	var perprio *dag.Stage
	if local {
		match := g.AddStage(dag.Stage{
			Name: "match",
			Build: func(node int, in []engine.Operator) engine.Operator {
				return &engine.HashJoin{
					Build: q4OrdersIn(db, node), Probe: q4LineIn(db, node),
					BuildKey: 0, ProbeKey: 0, Semi: true,
				}
			},
		})
		perprio = g.AddStage(dag.Stage{
			Name: "perprio",
			Build: func(node int, in []engine.Operator) engine.Operator {
				return &engine.HashAgg{In: in[0], KeyCols: []int{1},
					Aggs: []engine.AggSpec{{Kind: engine.AggCount}}}
			},
		})
		g.Connect(match, perprio) // detected: Forward (co-partitioned chaining)
	} else {
		orders := g.AddStage(dag.Stage{
			Name: "orders",
			Build: func(node int, in []engine.Operator) engine.Operator {
				return q4OrdersIn(db, node)
			},
		})
		match := g.AddStage(dag.Stage{
			Name: "match", Stateful: true,
			Build: func(node int, in []engine.Operator) engine.Operator {
				return &engine.HashJoin{
					Build: in[0], Probe: q4LineIn(db, node),
					BuildKey: 0, ProbeKey: 0, Semi: true,
				}
			},
		})
		g.Connect(orders, match, dag.WithReplicated()) // detected: Broadcast
		perprio = g.AddStage(dag.Stage{
			Name: "perprio", Stateful: true,
			Build: func(node int, in []engine.Operator) engine.Operator {
				// Broadcast-side semi joins can match one order on several
				// nodes: deduplicate on (okey, priority) first.
				return &engine.HashAgg{
					In: &engine.HashAgg{In: in[0], KeyCols: []int{0, 1},
						Aggs: []engine.AggSpec{{Kind: engine.AggCount}}},
					KeyCols: []int{1},
					Aggs:    []engine.AggSpec{{Kind: engine.AggCount}},
				}
			},
		})
		g.Connect(match, perprio, dag.WithKey(0)) // detected: Hash
	}
	final := g.AddStage(dag.Stage{
		Name: "final", Parallelism: 1, Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.TopN{
				In: &engine.HashAgg{In: in[0], KeyCols: []int{0},
					Aggs: []engine.AggSpec{sumCol(1)}},
				Less: func(sch *engine.Schema, a, b []byte) bool {
					return string(a[:16]) < string(b[:16]) // priority ascending
				},
			}
		},
	})
	g.Connect(perprio, final, dag.WithKey(0)) // detected: Hash; par 1 gathers
	return g
}

// PlanQ3 builds TPC-H Q3 as a DAG: CUSTOMER and ORDERS hash to the first
// join on customer key, and its projected output meets LINEITEM on order
// key. join2 is hash-partitioned on order key, the first group column, so
// each node's groups are complete: it keeps its own top ten, and only those
// gather into the final top-ten stage (the §5.2 rule of a top-N below the
// gather). q3Less is a total order on groups, so the local and global cuts
// agree on ties.
func PlanQ3(db *DB) *dag.Graph {
	g := dag.New()
	cust := g.AddStage(dag.Stage{
		Name: "cust",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Project{
				In: &engine.Filter{
					In: &engine.Scan{T: db.Customer[node]},
					Pred: func(b *engine.Batch, i int) bool {
						return b.Int64(i, CMktSegment) == SegBuilding
					},
				},
				Cols: []int{CCustKey},
			}
		},
	})
	ord := g.AddStage(dag.Stage{
		Name: "ord",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Project{
				In: &engine.Filter{
					In: &engine.Scan{T: db.Orders[node]},
					Pred: func(b *engine.Batch, i int) bool {
						return b.Int64(i, OOrderDate) < Date(1995, 3, 15)
					},
				},
				Cols: []int{OCustKey, OOrderKey, OOrderDate, OShipPriority},
			}
		},
	})
	join1 := g.AddStage(dag.Stage{
		Name: "join1", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			// (custkey) ++ (custkey, okey, odate, shippri); keep the order
			// attributes and re-key on order key.
			return &engine.Project{
				In: &engine.HashJoin{
					Build: in[0], Probe: in[1],
					BuildKey: 0, ProbeKey: 0,
				},
				Cols: []int{2, 3, 4},
			}
		},
	})
	g.Connect(cust, join1, dag.WithKey(0))
	g.Connect(ord, join1, dag.WithKey(0))
	line := g.AddStage(dag.Stage{
		Name: "line",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Project{
				In: &engine.Filter{
					In: &engine.Scan{T: db.Lineitem[node]},
					Pred: func(b *engine.Batch, i int) bool {
						return b.Int64(i, LShipDate) > Date(1995, 3, 15)
					},
				},
				Cols: []int{LOrderKey, LExtendedPrice, LDiscount},
			}
		},
	})
	join2 := g.AddStage(dag.Stage{
		Name: "join2", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			// (okey, odate, shippri) ++ (okey, price, disc), grouped, and
			// this node's top ten of its complete groups.
			return &engine.TopN{
				In: &engine.HashAgg{
					In: &engine.HashJoin{
						Build: in[0], Probe: in[1],
						BuildKey: 0, ProbeKey: 0,
					},
					KeyCols: []int{0, 1, 2},
					Aggs:    []engine.AggSpec{revenue(4, 5)},
				},
				N: 10, Less: q3Less,
			}
		},
	})
	g.Connect(join1, join2, dag.WithKey(0))
	g.Connect(line, join2, dag.WithKey(0))
	final := g.AddStage(dag.Stage{
		Name: "final", Parallelism: 1, Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.TopN{In: in[0], N: 10, Less: q3Less}
		},
	})
	g.Connect(join2, final, dag.WithKey(0))
	return g
}

// q3Less orders Q3's (okey, odate, shippri, revenue) groups by revenue
// descending, then order date, then order key, which is unique per group.
func q3Less(sch *engine.Schema, a, b []byte) bool {
	fa := f64(engine.RowInt64(sch, a, 3))
	fb := f64(engine.RowInt64(sch, b, 3))
	if fa != fb {
		return fa > fb
	}
	if oa, ob := engine.RowInt64(sch, a, 1), engine.RowInt64(sch, b, 1); oa != ob {
		return oa < ob
	}
	return engine.RowInt64(sch, a, 0) < engine.RowInt64(sch, b, 0)
}

// PlanQ10 builds TPC-H Q10 as a DAG: ORDERS and LINEITEM hash to the
// first join on order key, and per-customer revenues meet the local
// customer×nation join on customer key. join2 is hash-partitioned on
// customer key, the first group column, so each node's groups are complete:
// it keeps its own top twenty, and only those gather into the final
// top-twenty stage (the §5.2 rule of a top-N below the gather). q10Less is a
// total order on groups, so the local and global cuts agree on ties.
func PlanQ10(db *DB) *dag.Graph {
	g := dag.New()
	ord := g.AddStage(dag.Stage{
		Name: "ord",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Project{
				In: &engine.Filter{
					In: &engine.Scan{T: db.Orders[node]},
					Pred: func(b *engine.Batch, i int) bool {
						d := b.Int64(i, OOrderDate)
						return d >= Date(1993, 10, 1) && d < Date(1994, 1, 1)
					},
				},
				Cols: []int{OOrderKey, OCustKey},
			}
		},
	})
	line := g.AddStage(dag.Stage{
		Name: "line",
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.Project{
				In: &engine.Filter{
					In: &engine.Scan{T: db.Lineitem[node]},
					Pred: func(b *engine.Batch, i int) bool {
						return b.Int64(i, LReturnFlag) == ReturnFlagR
					},
				},
				Cols: []int{LOrderKey, LExtendedPrice, LDiscount},
			}
		},
	})
	join1 := g.AddStage(dag.Stage{
		Name: "join1", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			// (okey, custkey) ++ (okey, price, disc): pre-aggregate revenue
			// per customer before re-keying on customer key.
			return &engine.HashAgg{
				In: &engine.HashJoin{
					Build: in[0], Probe: in[1],
					BuildKey: 0, ProbeKey: 0,
				},
				KeyCols: []int{1}, // custkey
				Aggs:    []engine.AggSpec{revenue(3, 4)},
			}
		},
	})
	g.Connect(ord, join1, dag.WithKey(0))
	g.Connect(line, join1, dag.WithKey(0))
	cust := g.AddStage(dag.Stage{
		Name: "cust",
		Build: func(node int, in []engine.Operator) engine.Operator {
			// Customer ⋈ NATION is local (NATION is replicated); output wide
			// customer attributes keyed by custkey.
			return &engine.Project{
				In: &engine.HashJoin{
					Build: &engine.Scan{T: db.Nation}, Probe: &engine.Scan{T: db.Customer[node]},
					BuildKey: NNationKey, ProbeKey: CNationKey,
				},
				// nation(nk,name,rk) ++ customer(8 cols)
				Cols: []int{3 + CCustKey, 3 + CName, 3 + CAcctBal, 3 + CPhone,
					3 + CAddress, 3 + CComment, NName},
			}
		},
	})
	join2 := g.AddStage(dag.Stage{
		Name: "join2", Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			// customer attrs ++ (custkey, revenue), grouped per customer, and
			// this node's top twenty of its complete groups.
			return &engine.TopN{
				In: &engine.HashAgg{
					In: &engine.HashJoin{
						Build: in[1], Probe: in[0],
						BuildKey: 0, ProbeKey: 0,
					},
					KeyCols: []int{0, 1, 2, 3, 4, 5, 6},
					Aggs:    []engine.AggSpec{sumCol(8)},
				},
				N: 20, Less: q10Less,
			}
		},
	})
	g.Connect(join1, join2, dag.WithKey(0))
	g.Connect(cust, join2, dag.WithKey(0))
	final := g.AddStage(dag.Stage{
		Name: "final", Parallelism: 1, Stateful: true,
		Build: func(node int, in []engine.Operator) engine.Operator {
			return &engine.TopN{In: in[0], N: 20, Less: q10Less}
		},
	})
	g.Connect(join2, final, dag.WithKey(0))
	return g
}

// q10Less orders Q10's per-customer groups by revenue (column 7) descending,
// then customer key, which is unique per group.
func q10Less(sch *engine.Schema, a, b []byte) bool {
	fa := f64(engine.RowInt64(sch, a, 7))
	fb := f64(engine.RowInt64(sch, b, 7))
	if fa != fb {
		return fa > fb
	}
	return engine.RowInt64(sch, a, 0) < engine.RowInt64(sch, b, 0)
}
