package main

import (
	"math"
	"sort"
	"time"
)

// sample is one measured client op.
type sample struct {
	lat   time.Duration // simulated
	write bool
}

// percentile returns the nearest-rank pct-th percentile of sorted.
func percentile(sorted []time.Duration, pct float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(pct/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// beyond is how many of n samples lie above the pct-th percentile.
func beyond(n int, pct float64) int {
	return n - int(math.Ceil(pct/100*float64(n)))
}

func sortedLat(ss []sample, keep func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if keep(s) {
			out = append(out, s.lat)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters reads every public layer counter of the stack (and the
// workload's own) into a flat map, so a phase's work is the difference
// of two snapshots.
func counters(st *stack, a app) map[string]float64 {
	c := make(map[string]float64)
	bs := st.eng.BP.Stats
	c["bp.hits"] = float64(bs.Hits)
	c["bp.ext_hits"] = float64(bs.ExtHits)
	c["bp.disk_reads"] = float64(bs.DiskReads)
	c["bp.evict_dirty"] = float64(bs.EvictDirty)
	c["bp.evict_write_bytes"] = float64(bs.EvictWriteBytes)
	c["bp.writer_bytes"] = float64(bs.WriterBytes)
	c["bp.ext_write_bytes"] = float64(bs.ExtWriteBytes)
	c["bp.ra_pages"] = float64(bs.ReadAheadPages)
	c["bp.ra_hits"] = float64(bs.ReadAheadHits)

	c["plan.hits"] = float64(st.eng.Planner.Hits)
	c["plan.misses"] = float64(st.eng.Planner.Misses)

	c["temp.spilled"] = float64(st.eng.Temp.BytesSpilled)
	c["temp.read"] = float64(st.eng.Temp.BytesRead)

	c["log.flushes"] = float64(st.eng.Log.Flushes)
	c["log.appends"] = float64(st.eng.Log.Appends)
	c["log.bytes"] = float64(st.eng.Log.BytesWrote)

	fs := st.fs
	c["core.tolerant_reads"] = float64(fs.TolerantReads)
	c["core.hedged_reads"] = float64(fs.HedgedReads)
	c["core.hedge_wins"] = float64(fs.HedgeWins)
	c["core.failovers"] = float64(fs.Failovers.N)
	c["core.corruptions"] = float64(fs.Corruptions.N)
	c["core.push_reads"] = float64(fs.PushReads)
	c["core.push_fallbacks"] = float64(fs.PushFallbacks)
	c["core.heartbeats"] = float64(fs.Heartbeats)
	c["core.slow_reads"] = float64(fs.SlowReads)
	c["core.brownouts"] = float64(fs.Brownouts)
	c["core.quarantines"] = float64(fs.Quarantines)
	c["core.migrations"] = float64(fs.ProactiveMigrations)
	c["core.restripes"] = float64(fs.Restripes)
	c["core.salvages"] = float64(fs.Salvages)
	c["bp.ext_slow"] = float64(bs.ExtSlow)

	cl := st.client
	c["rmem.reads"] = float64(cl.Reads)
	c["rmem.writes"] = float64(cl.Writes)
	c["rmem.bytes"] = float64(cl.BytesRead + cl.BytesWrt)
	c["rmem.round_trips"] = float64(cl.RoundTrips)
	c["rmem.staging_wait_ns"] = float64(cl.StagingContention.WaitTime)
	c["rmem.push_scanned"] = float64(cl.PushBytesScanned)
	c["rmem.push_returned"] = float64(cl.PushBytesReturned)
	c["rmem.push_donor_cpu_ns"] = float64(cl.PushDonorCPU)

	c["broker.grants"] = float64(st.broker.Grants())
	c["broker.renewals"] = float64(st.broker.Renewals())

	now := float64(st.db.K.NowNanos())
	c["cpu.busy_ns"] = float64(st.db.CPUBusyNanos())
	c["nic.tx_busy_ns"] = st.db.NIC.TxUtilization() * now
	c["nic.rx_busy_ns"] = st.db.NIC.RxUtilization() * now
	reads, _, _, written := st.db.HDD.Stats()
	c["hdd.reads"] = float64(reads)
	c["hdd.write_bytes"] = float64(written)

	if o, ok := a.(*olap); ok {
		c["exec.spilled_parts"] = float64(o.spilledParts)
		c["exec.spilled_runs"] = float64(o.spilledRuns)
	}
	return c
}

// layerMetrics derives the per-layer metrics from the counter deltas of
// the measured phase (d), its op count and simulated length, and the
// number of those ops that were queries.
func layerMetrics(d map[string]float64, ops, queries int64, elapsed time.Duration, cores int) map[string]float64 {
	n := float64(ops)
	q := float64(queries)
	secs := elapsed.Seconds()
	return map[string]float64{
		"plan.cache_hit_ratio":             ratio(d["plan.hits"], d["plan.hits"]+d["plan.misses"]),
		"exec.spilled_parts_per_query":     ratio(d["exec.spilled_parts"], q),
		"exec.spilled_runs_per_query":      ratio(d["exec.spilled_runs"], q),
		"buffer.ext_hit_ratio":             ratio(d["bp.ext_hits"], d["bp.ext_hits"]+d["bp.disk_reads"]),
		"buffer.disk_reads_per_op":         ratio(d["bp.disk_reads"], n),
		"buffer.hit_ratio":                 ratio(d["bp.hits"], d["bp.hits"]+d["bp.ext_hits"]+d["bp.disk_reads"]),
		"buffer.readahead_useful_ratio":    ratio(d["bp.ra_hits"], d["bp.ra_pages"]),
		"buffer.sync_evicts_dirty_per_op":  ratio(d["bp.evict_dirty"], n),
		"buffer.writeback_bytes_per_op":    ratio(d["bp.evict_write_bytes"]+d["bp.writer_bytes"], n),
		"buffer.ext_write_bytes_per_op":    ratio(d["bp.ext_write_bytes"], n),
		"tempdb.spill_bytes_per_query":     ratio(d["temp.spilled"], q),
		"tempdb.read_bytes_per_query":      ratio(d["temp.read"], q),
		"txn.appends_per_flush":            ratio(d["log.appends"], d["log.flushes"]),
		"txn.log_bytes_per_op":             ratio(d["log.bytes"], n),
		"txn.flushes_per_s":                ratio(d["log.flushes"], secs),
		"core.tolerant_reads_per_op":       ratio(d["core.tolerant_reads"], n),
		"core.hedged_reads":                d["core.hedged_reads"],
		"core.hedge_win_ratio":             ratio(d["core.hedge_wins"], d["core.hedged_reads"]),
		"core.failovers":                   d["core.failovers"],
		"core.corruptions":                 d["core.corruptions"],
		"core.push_reads_per_query":        ratio(d["core.push_reads"], q),
		"core.push_fallbacks":              d["core.push_fallbacks"],
		"core.heartbeats_per_s":            ratio(d["core.heartbeats"], secs),
		"core.slow_reads":                  d["core.slow_reads"],
		"core.brownouts":                   d["core.brownouts"],
		"core.quarantines":                 d["core.quarantines"],
		"core.proactive_migrations":        d["core.migrations"],
		"core.restripes":                   d["core.restripes"],
		"core.salvages":                    d["core.salvages"],
		"buffer.ext_slow":                  d["bp.ext_slow"],
		"rmem.reads_per_op":                ratio(d["rmem.reads"], n),
		"rmem.writes_per_op":               ratio(d["rmem.writes"], n),
		"rmem.staging_wait_us_per_op":      ratio(d["rmem.staging_wait_ns"]/1e3, n),
		"rmem.round_trips_per_op":          ratio(d["rmem.round_trips"], n),
		"rmem.bytes_per_round_trip":        ratio(d["rmem.bytes"], d["rmem.round_trips"]),
		"rmem.push_return_ratio":           ratio(d["rmem.push_returned"], d["rmem.push_scanned"]),
		"rmem.push_donor_cpu_ms_per_query": ratio(d["rmem.push_donor_cpu_ns"]/1e6, q),
		"cluster.db_cpu_util":              ratio(d["cpu.busy_ns"], float64(elapsed)*float64(cores)),
		"nic.db_tx_util":                   ratio(d["nic.tx_busy_ns"], float64(elapsed)),
		"nic.db_rx_util":                   ratio(d["nic.rx_busy_ns"], float64(elapsed)),
		"disk.hdd_reads_per_op":            ratio(d["hdd.reads"], n),
		"disk.hdd_write_bytes_per_op":      ratio(d["hdd.write_bytes"], n),
	}
}

func delta(after, before map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
