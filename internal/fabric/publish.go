package fabric

import (
	"fmt"

	"rshuffle/internal/telemetry"
)

// PublishMetrics copies every NIC counter into the registry under
// "fabric.<metric>.node<i>" names plus "fabric.<metric>.total" aggregates.
// It supersedes scattered per-test NICStats reads: experiments scrape the
// registry once and derive their figures from it. Counters accumulate, so
// publishing twice doubles them — publish into a fresh registry per run.
func (n *Network) PublishMetrics(reg *telemetry.Registry) {
	type item struct {
		name string
		get  func(*NICStats) int64
	}
	items := []item{
		{"tx_messages", func(s *NICStats) int64 { return s.TxMessages }},
		{"rx_messages", func(s *NICStats) int64 { return s.RxMessages }},
		{"tx_bytes", func(s *NICStats) int64 { return s.TxBytes }},
		{"rx_bytes", func(s *NICStats) int64 { return s.RxBytes }},
		{"tx_wire_bytes", func(s *NICStats) int64 { return s.TxWireBytes }},
		{"tx_control_bytes", func(s *NICStats) int64 { return s.TxControlBytes }},
		{"tx_data_bytes", func(s *NICStats) int64 { return s.TxDataBytes }},
		{"rx_control_bytes", func(s *NICStats) int64 { return s.RxControlBytes }},
		{"rx_data_bytes", func(s *NICStats) int64 { return s.RxDataBytes }},
		{"qp_cache_hits", func(s *NICStats) int64 { return s.QPCacheHits }},
		{"qp_cache_misses", func(s *NICStats) int64 { return s.QPCacheMisses }},
		{"qp_cache_evictions", func(s *NICStats) int64 { return s.QPCacheEvictions }},
		{"ud_dropped", func(s *NICStats) int64 { return s.UDDropped }},
		{"rc_dropped", func(s *NICStats) int64 { return s.RCDropped }},
		{"rc_retransmits", func(s *NICStats) int64 { return s.RCRetransmits }},
		{"pfc_pauses_sent", func(s *NICStats) int64 { return s.PFCPausesSent }},
		{"pfc_pause_ns", func(s *NICStats) int64 { return int64(s.PFCPauseTime) }},
		{"ecn_marks", func(s *NICStats) int64 { return s.ECNMarks }},
		{"tail_drops", func(s *NICStats) int64 { return s.TailDrops }},
	}
	for _, it := range items {
		total := reg.Counter("fabric." + it.name + ".total")
		for i, nc := range n.nics {
			v := it.get(&nc.stats)
			reg.Counter(fmt.Sprintf("fabric.%s.node%d", it.name, i)).Add(v)
			total.Add(v)
		}
	}
	txPeak := reg.Gauge("fabric.tx_backlog_peak_us.max")
	rxPeak := reg.Gauge("fabric.rx_backlog_peak_us.max")
	for i, nc := range n.nics {
		tx := float64(nc.stats.TxBacklogPeak) / 1e3
		rx := float64(nc.stats.RxBacklogPeak) / 1e3
		reg.Gauge(fmt.Sprintf("fabric.tx_backlog_peak_us.node%d", i)).SetMax(tx)
		reg.Gauge(fmt.Sprintf("fabric.rx_backlog_peak_us.node%d", i)).SetMax(rx)
		txPeak.SetMax(tx)
		rxPeak.SetMax(rx)
	}
}
